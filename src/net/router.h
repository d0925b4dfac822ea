#ifndef CGRX_SRC_NET_ROUTER_H_
#define CGRX_SRC_NET_ROUTER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/api/execution_policy.h"
#include "src/net/wire.h"
#include "src/storage/durable_service.h"

namespace cgrx::net {

/// Summary row of one hosted index (the list_indexes verb).
struct IndexInfo {
  std::string name;
  std::uint64_t epoch = 0;
  std::uint64_t entries = 0;
};

/// Multi-index router: hosts many named ServingIndex instances behind
/// one server, each backed by its own store directory under
/// `Options::root/<name>`. Open recovers an existing store or creates
/// a fresh one from a MakeIndex backend name -- or, with a
/// "replica:<host>:<port>/<primary_index>" backend, a
/// replication::ReplicaIndexService tailing a primary on another
/// server. Close drains and evicts one index while the rest keep
/// serving.
///
/// Concurrency: the name table is mutex-guarded; request threads take
/// a Lease (shared_ptr to the host plus an in-flight count) so a
/// concurrent Close waits for admitted requests to finish instead of
/// pulling the service out from under them. The per-index
/// DurableIndexService keeps its own single-writer ordering; the
/// router adds no cross-index ordering whatsoever -- indexes scale
/// independently.
class IndexRouter {
 public:
  /// The network tier hosts 64-bit-key indexes (u64 keys on the wire).
  using Key = std::uint64_t;
  /// What the router hosts: a primary (DurableIndexService) or a
  /// replica (replication::ReplicaIndexService) behind one interface.
  using Hosted = storage::ServingIndex<Key>;
  using Service = storage::DurableIndexService<Key>;

  struct Options {
    /// Directory that holds one store directory per index name.
    std::filesystem::path root;
    /// Execution policy every hosted service dispatches batches under.
    api::ExecutionPolicy policy{};
    /// Bounded submission queue per hosted service (see
    /// api::IndexService::Options::queue_limit); the admission caps in
    /// front of it should be smaller, making this the second line of
    /// defence.
    std::size_t service_queue_limit = 256;
    /// WAL retention horizon for every hosted store (see
    /// storage::IndexStore::Options::retain_wal_epochs): how far back
    /// a checkpointed primary keeps superseded segments fetchable for
    /// lagging replication followers.
    std::uint64_t retain_wal_epochs = 0;
  };

  /// One hosted index. Request threads access the service through a
  /// Lease only.
  class Host {
   public:
    Host(std::string name, std::unique_ptr<Hosted> service)
        : name_(std::move(name)), service_(std::move(service)) {}

    const std::string& name() const { return name_; }
    Hosted& service() { return *service_; }

    /// Wave payload bytes this host has shipped to replication
    /// fetchers (kSubscribeWal/kFetchWalRange), for /metrics.
    void AddBytesShipped(std::uint64_t bytes) {
      bytes_shipped_.fetch_add(bytes, std::memory_order_relaxed);
    }
    std::uint64_t bytes_shipped() const {
      return bytes_shipped_.load(std::memory_order_relaxed);
    }

   private:
    friend class IndexRouter;

    /// False once Close() marked the host; no new leases.
    bool BeginRequest() {
      const std::lock_guard<std::mutex> lock(mutex_);
      if (closing_) return false;
      ++in_flight_;
      return true;
    }

    void EndRequest() {
      const std::lock_guard<std::mutex> lock(mutex_);
      if (--in_flight_ == 0 && closing_) idle_.notify_all();
    }

    /// Marks closing and waits for admitted requests to finish.
    void DrainRequests() {
      std::unique_lock<std::mutex> lock(mutex_);
      closing_ = true;
      idle_.wait(lock, [this] { return in_flight_ == 0; });
    }

    std::string name_;
    std::unique_ptr<Hosted> service_;
    std::mutex mutex_;
    std::condition_variable idle_;
    std::size_t in_flight_ = 0;
    bool closing_ = false;
    std::atomic<std::uint64_t> bytes_shipped_{0};
  };

  /// RAII request admission on one host: holds the host alive and
  /// counted until destruction. Boolean-testable; false means the
  /// index is unknown or closing (the caller answers kNotFound).
  class Lease {
   public:
    Lease() = default;
    explicit Lease(std::shared_ptr<Host> host) : host_(std::move(host)) {
      if (host_ != nullptr && !host_->BeginRequest()) host_.reset();
    }
    ~Lease() {
      if (host_ != nullptr) host_->EndRequest();
    }
    Lease(Lease&& other) noexcept : host_(std::move(other.host_)) {}
    Lease& operator=(Lease&&) = delete;
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;

    explicit operator bool() const { return host_ != nullptr; }
    Host* operator->() const { return host_.get(); }
    Host& operator*() const { return *host_; }

   private:
    std::shared_ptr<Host> host_;
  };

  explicit IndexRouter(Options options);

  /// Closes every hosted index (drain + graceful service shutdown).
  ~IndexRouter();

  IndexRouter(const IndexRouter&) = delete;
  IndexRouter& operator=(const IndexRouter&) = delete;

  /// Opens index `name`: recovers `root/<name>` if a store exists
  /// there (snapshot + WAL replay; `backend` is ignored), else creates
  /// a fresh empty index of MakeIndex backend `backend` and initializes
  /// its store. A `backend` of the form
  /// "replica:<host>:<port>/<primary_index>" instead hosts a read-only
  /// replica tailing that primary (bootstrapping from empty, or
  /// resuming a replica store's own state); reopening a former replica
  /// directory WITHOUT the replica: prefix promotes it to a standalone
  /// primary (plain recovery of its snapshot + WAL). Idempotent for an
  /// already-open name (kOk, message notes it). Returns
  /// kInvalidArgument for malformed names or unknown backends,
  /// kFailedPrecondition for an unrecoverable store, kUnavailable when
  /// a replica bootstrap cannot reach its primary.
  Status Open(const std::string& name, const std::string& backend,
              std::string* message);

  /// Drains and closes index `name`: new requests get kNotFound
  /// immediately, admitted requests finish, the service shuts down
  /// gracefully (queue drained, tickets resolved), and the store
  /// directory remains for a future Open to recover. `epoch_out`
  /// receives the final completed epoch.
  Status Close(const std::string& name, std::string* message,
               std::uint64_t* epoch_out);

  /// Admits a request on `name`; an empty Lease means unknown/closing.
  Lease Acquire(const std::string& name);

  /// Epoch and entry count of `name`; nullopt when it is unknown or
  /// closing.
  std::optional<IndexInfo> Describe(const std::string& name);

  /// Snapshot of all hosted indexes (epoch + entry count per index).
  std::vector<IndexInfo> List();

  /// Names only, for metric scrapes that fetch stats per index
  /// themselves.
  std::vector<std::string> Names() const;

  void CloseAll();

  const Options& options() const { return options_; }

  /// A valid index name: 1-64 chars of [A-Za-z0-9_.-], not starting
  /// with a dot (index names become directory names under root).
  static bool ValidName(const std::string& name);

 private:
  Options options_;
  mutable std::mutex mutex_;
  std::map<std::string, std::shared_ptr<Host>> hosts_;
  /// Names mid-Open (store creation/recovery runs outside mutex_; a
  /// concurrent Open of the same name must not create a second store).
  std::set<std::string> opening_;
};

}  // namespace cgrx::net

#endif  // CGRX_SRC_NET_ROUTER_H_
