// blobseer_bench: end-to-end benchmark of one BlobSeer deployment over TCP
// loopback. A run drives one named workload in a closed loop for --seconds,
// split over sessions that each run in a child process and start a fresh
// in-process cluster (4 data providers, 4 DHT nodes, 1 version manager,
// 1 provider manager, replication 1) whose providers keep pages in "log:"
// stores under --data-dir. It byte-verifies every read and prints one line per metric:
//
//   <workload> <metric> <value> <unit>
//   result correct|attempted|failed <n>
//
// --trace=1 instead hands the clients decorators of rpc::Transport and
// Executor (trace.h) and prints per-layer metrics derived from the RPC spans
// of every timed op; --trace-json=PATH also writes the spans of the first
// ops as Chrome trace-event JSON. See README.md for the workloads, the
// metric definitions and the measured spreads.
#include <fcntl.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cinttypes>
#include <climits>
#include <cmath>
#include <condition_variable>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <iterator>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "client/blob_client.h"
#include "common/executor.h"
#include "common/hash.h"
#include "common/random.h"
#include "common/serde.h"
#include "core/cluster.h"
#include "trace.h"

namespace blobseer::bench {
namespace {

using client::BlobClient;

constexpr uint64_t kKiB = 1024;
constexpr uint64_t kMiB = 1024 * kKiB;
// Spans of the first ops go to --trace-json; aggregates cover every op.
constexpr uint64_t kChromeTraceOps = 2000;
// Sessions a run splits its measured time into. The median over more
// sessions is steadier, and every workload's set-up takes under 3 s, so ten
// keep a 10 s run under a minute.
constexpr int kSessions = 10;

struct Flags {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string data_dir = ".bench_build/data";
  std::string trace_json;
};

bool ParseFlags(int argc, char** argv, Flags* f) {
  for (int i = 1; i < argc; i++) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) return false;
    std::string name = arg.substr(2), value;
    size_t eq = name.find('=');
    if (eq != std::string::npos) {
      value = name.substr(eq + 1);
      name.resize(eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      return false;
    }
    if (name == "workload") {
      f->workload = value;
    } else if (name == "seed") {
      f->seed = strtoull(value.c_str(), nullptr, 10);
    } else if (name == "seconds") {
      f->seconds = strtod(value.c_str(), nullptr);
    } else if (name == "trace") {
      f->trace = value == "1" || value == "true";
    } else if (name == "data-dir") {
      f->data_dir = value;
    } else if (name == "trace-json") {
      f->trace_json = value;
    } else {
      return false;
    }
  }
  return !f->workload.empty() && f->seconds > 0;
}

/// Deterministic page contents: a splitmix64 stream keyed per written unit,
/// so expected bytes are regenerated instead of stored.
uint64_t ContentKey(uint64_t seed, uint64_t blob, uint64_t unit,
                    uint64_t gen) {
  return HashCombine(HashCombine(Mix64(seed), blob), HashCombine(unit, gen));
}

void FillPayload(char* dst, size_t n, uint64_t key) {
  uint64_t x = key;
  size_t i = 0;
  for (; i < n; i += 8) {
    x += 0x9E3779B97F4A7C15ULL;
    uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    z ^= z >> 31;
    memcpy(dst + i, &z, std::min<size_t>(8, n - i));
  }
}

std::string Payload(size_t n, uint64_t key) {
  std::string s(n, '\0');
  FillPayload(s.data(), n, key);
  return s;
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  double pos = q * double(v.size() - 1);
  size_t lo = size_t(pos);
  size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - double(lo));
}

/// One fresh cluster plus the bench-owned executor and the clients built on
/// it. Clients share one 4-thread pool and 4 channels per endpoint, so the
/// load generator stays within the machine's cores and connections.
class Env {
 public:
  static Result<std::unique_ptr<Env>> Start(const std::string& dir,
                                            bool trace) {
    std::unique_ptr<Env> env(new Env());
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    if (ec) {
      return Status::IOError("cannot create " + dir + ": " + ec.message());
    }
    core::ClusterOptions co;
    co.num_providers = 4;
    co.num_meta = 4;
    co.transport = "tcp";
    co.page_store = "log:" + dir;
    auto cluster = core::EmbeddedCluster::Start(co);
    if (!cluster.ok()) return cluster.status();
    env->cluster_ = std::move(cluster).ValueUnsafe();
    env->pool_ = std::make_unique<ThreadPoolExecutor>(4);
    env->executor_ = env->pool_.get();
    env->transport_ = env->cluster_->transport();
    if (trace) {
      env->traced_pool_ = std::make_unique<TracingExecutor>(env->pool_.get());
      env->traced_transport_ =
          std::make_unique<TracingTransport>(env->cluster_->transport());
      env->executor_ = env->traced_pool_.get();
      env->transport_ = env->traced_transport_.get();
    }
    return env;
  }

  ~Env() {
    clients_.clear();
    cluster_.reset();
  }

  BlobClient* NewClient(client::ClientOptions o = {}) {
    o.channels_per_endpoint = 4;
    clients_.push_back(std::make_unique<BlobClient>(
        transport_, cluster_->vmanager_address(), cluster_->pmanager_address(),
        cluster_->dht_addresses(), o, nullptr, executor_));
    return clients_.back().get();
  }

  core::EmbeddedCluster& cluster() { return *cluster_; }

 private:
  Env() = default;

  std::unique_ptr<ThreadPoolExecutor> pool_;
  std::unique_ptr<TracingExecutor> traced_pool_;
  std::unique_ptr<core::EmbeddedCluster> cluster_;
  std::unique_ptr<TracingTransport> traced_transport_;
  rpc::Transport* transport_ = nullptr;
  Executor* executor_ = nullptr;
  std::vector<std::unique_ptr<BlobClient>> clients_;
};

enum class OpKind : uint8_t { kRead, kAppend, kWrite };

const char* OpKindName(OpKind k) {
  switch (k) {
    case OpKind::kRead:
      return "read";
    case OpKind::kAppend:
      return "append";
    case OpKind::kWrite:
      return "write";
  }
  return "op";
}

/// What the generator learns when an op finishes. Updates finish when their
/// SYNC resolves, i.e. when the new version is readable.
struct Completion {
  uint64_t op = 0;
  int64_t end_ns = 0;
  Status status;
  std::string data;  // bytes read
  Version version = 0;
};

/// Closed-loop load generator: one thread keeps `depth` ops in flight
/// until the deadline, then drains. Completions arrive on transport threads
/// and are handed back to the generator thread, which alone touches the
/// workload's model, so verification never stalls a transport thread.
class ClosedLoop {
 public:
  void Complete(Completion c) {
    std::lock_guard<std::mutex> lock(mu_);
    done_.push_back(std::move(c));
    cv_.notify_one();
  }

  template <typename Issue, typename OnDone>
  void Run(size_t depth, int64_t deadline_ns, Issue issue, OnDone on_done) {
    size_t inflight = 0;
    uint64_t next = 0;
    std::vector<Completion> batch;
    for (;;) {
      while (inflight < depth && NowNs() < deadline_ns) {
        inflight++;
        issue(next++);
      }
      if (inflight == 0) break;
      {
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock, [this] { return !done_.empty(); });
        batch.swap(done_);
      }
      for (Completion& c : batch) {
        inflight--;
        on_done(c);
      }
      batch.clear();
    }
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<Completion> done_;
};

/// Per-op record of the timed phase; index = op id - 1.
struct OpRecord {
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint64_t bytes = 0;
  OpKind kind = OpKind::kRead;
  bool ok = false;
};

class Workload {
 public:
  virtual ~Workload() = default;
  virtual size_t depth() const = 0;
  /// Creates and preloads blobs on a fresh cluster and warms the clients.
  virtual Status Setup(Env* env) = 0;
  /// Starts timed op `op` (0-based); it must end in exactly one
  /// loop->Complete. Fills rec->kind and rec->bytes.
  virtual void Issue(uint64_t op, ClosedLoop* loop, OpRecord* rec) = 0;
  /// Runs on the generator thread; returns whether the op succeeded and
  /// every byte it returned was the expected one.
  virtual bool Check(const Completion& c) = 0;
  /// Post-run verification (untimed).
  virtual Status Verify() { return Status::OK(); }
  uint64_t user_bytes_written() const { return user_bytes_written_; }

 protected:
  uint64_t user_bytes_written_ = 0;
};

/// Appends and waits for the new version to be published (setup only).
Status AppendAndSync(BlobClient* c, BlobId id, const std::string& data,
                     Version* out) {
  auto v = c->AppendAsync(id, Slice(data)).Wait();
  if (!v.ok()) return v.status();
  BS_RETURN_NOT_OK(c->SyncAsync(id, *v).Wait().status());
  if (out) *out = *v;
  return Status::OK();
}

/// Issues an update (append or in-place write) and chains its SYNC; the
/// payload lives until the update has resolved.
void IssueUpdate(BlobClient* c, ClosedLoop* loop, uint64_t op, BlobId id,
                 OpKind kind, std::shared_ptr<std::string> payload,
                 uint64_t offset) {
  Future<Version> f = kind == OpKind::kAppend
                          ? c->AppendAsync(id, Slice(*payload))
                          : c->WriteAsync(id, Slice(*payload), offset);
  f.OnReady(nullptr, [c, loop, op, id, payload](Result<Version> v) {
    if (!v.ok()) {
      loop->Complete(Completion{op, NowNs(), v.status(), {}, 0});
      return;
    }
    Version version = *v;
    c->SyncAsync(id, version)
        .OnReady(nullptr, [loop, op, version](Result<Unit> s) {
          loop->Complete(Completion{op, NowNs(), s.status(), {}, version});
        });
  });
}

void IssueRead(BlobClient* c, ClosedLoop* loop, uint64_t op, BlobId id,
               Version v, uint64_t offset, uint64_t size) {
  c->ReadAsync(id, v, offset, size)
      .OnReady(nullptr, [loop, op](Result<std::string> r) {
        Completion done{op, NowNs(), r.status(), {}, 0};
        if (r.ok()) done.data = std::move(r).ValueUnsafe();
        loop->Complete(std::move(done));
      });
}

// --- scan: one 64 MiB blob of 64 KiB pages, random chunk-aligned 1 MiB
// reads of the latest version by a reader whose caches hold the whole tree.
// The bytes path (provider reads, pagelog pread, transport framing) carries
// all the work; metadata, locator and pmanager are bypassed.
class ScanWorkload : public Workload {
 public:
  static constexpr uint64_t kPsize = 64 * kKiB;
  static constexpr uint64_t kBlobBytes = 64 * kMiB;
  static constexpr uint64_t kReadBytes = 1 * kMiB;
  static constexpr uint64_t kLoadBytes = 8 * kMiB;

  explicit ScanWorkload(uint64_t seed) : seed_(seed), rng_(seed) {}
  size_t depth() const override { return 4; }

  Status Setup(Env* env) override {
    BlobClient* writer = env->NewClient();
    reader_ = env->NewClient();
    auto id = writer->CreateAsync(kPsize).Wait();
    if (!id.ok()) return id.status();
    id_ = *id;
    content_.resize(kBlobBytes);
    for (uint64_t p = 0; p < kBlobBytes / kPsize; p++)
      FillPayload(&content_[p * kPsize], kPsize, ContentKey(seed_, 0, p, 0));
    for (uint64_t off = 0; off < kBlobBytes; off += kLoadBytes) {
      BS_RETURN_NOT_OK(AppendAndSync(
          writer, id_, content_.substr(off, kLoadBytes), &version_));
    }
    user_bytes_written_ = kBlobBytes;
    // Warm pass: every chunk once, so the reader caches the whole tree and
    // every location entry before timing starts.
    for (uint64_t off = 0; off < kBlobBytes; off += kReadBytes) {
      auto r = reader_->ReadAsync(id_, version_, off, kReadBytes).Wait();
      if (!r.ok()) return r.status();
      if (memcmp(r->data(), &content_[off], kReadBytes) != 0)
        return Status::Corruption("scan warm-up read mismatch");
    }
    return Status::OK();
  }

  void Issue(uint64_t op, ClosedLoop* loop, OpRecord* rec) override {
    uint64_t chunk = rng_.Uniform(kBlobBytes / kReadBytes);
    chunks_.push_back(uint32_t(chunk));
    rec->kind = OpKind::kRead;
    rec->bytes = kReadBytes;
    IssueRead(reader_, loop, op, id_, version_, chunk * kReadBytes,
              kReadBytes);
  }

  bool Check(const Completion& c) override {
    return c.status.ok() && c.data.size() == kReadBytes &&
           memcmp(c.data.data(), &content_[chunks_[c.op] * kReadBytes],
                  kReadBytes) == 0;
  }

 private:
  uint64_t seed_;
  Rng rng_;
  BlobClient* reader_ = nullptr;
  BlobId id_ = kInvalidBlobId;
  Version version_ = 0;
  std::string content_;
  std::vector<uint32_t> chunks_;  // per op
};

// --- append_shared: 8 appenders in flight into one shared blob of 16 KiB
// pages that starts at 32 MiB, each 4-page append chained to its SYNC. The
// write path: version assignment and publication, metadata weaving,
// allocation, location publish, pagelog append + group-commit fdatasync. No
// reads while timed; the final version is read back and verified afterwards.
class AppendSharedWorkload : public Workload {
 public:
  static constexpr uint64_t kPsize = 16 * kKiB;
  static constexpr uint64_t kAppendBytes = 64 * kKiB;
  static constexpr uint64_t kLoadBytes = 4 * kMiB;
  static constexpr uint64_t kLoads = 8;

  explicit AppendSharedWorkload(uint64_t seed) : seed_(seed) {}
  size_t depth() const override { return 8; }

  Status Setup(Env* env) override {
    writer_ = env->NewClient();
    auto id = writer_->CreateAsync(kPsize).Wait();
    if (!id.ok()) return id.status();
    id_ = *id;
    version_op_.assign(kLoads + 1, 0);
    for (uint64_t i = 0; i < kLoads; i++) {
      BS_RETURN_NOT_OK(AppendAndSync(
          writer_, id_, Payload(kLoadBytes, ContentKey(seed_, 2, i, 0)),
          nullptr));
    }
    user_bytes_written_ = kLoads * kLoadBytes;
    return Status::OK();
  }

  void Issue(uint64_t op, ClosedLoop* loop, OpRecord* rec) override {
    rec->kind = OpKind::kAppend;
    rec->bytes = kAppendBytes;
    user_bytes_written_ += kAppendBytes;
    auto payload = std::make_shared<std::string>(
        Payload(kAppendBytes, ContentKey(seed_, 1, op, 0)));
    IssueUpdate(writer_, loop, op, id_, OpKind::kAppend, std::move(payload),
                0);
  }

  bool Check(const Completion& c) override {
    if (!c.status.ok()) return false;
    if (c.version >= version_op_.size()) version_op_.resize(c.version + 1, 0);
    version_op_[c.version] = c.op + 1;
    return true;
  }

  /// Preload append i (version i + 1) fills [i, i + 1) * kLoadBytes; timed
  /// version v > kLoads holds op version_op_[v]'s payload right after
  /// version v - 1. Appends publish in version order, so the final version
  /// is the concatenation of every payload in version order.
  Status Verify() override {
    const Version last = version_op_.size() - 1;
    for (Version v = kLoads + 1; v <= last; v++) {
      if (version_op_[v] == 0)
        return Status::Corruption("append versions are not contiguous");
    }
    const uint64_t preload = kLoads * kLoadBytes;
    const uint64_t size = preload + (last - kLoads) * kAppendBytes;
    std::string expected;
    for (uint64_t off = 0; off < size; off += kLoadBytes) {
      const uint64_t len = std::min(kLoadBytes, size - off);
      auto r = writer_->ReadAsync(id_, last, off, len).Wait();
      if (!r.ok()) return r.status();
      expected.resize(len);
      if (off < preload) {
        FillPayload(expected.data(), len,
                    ContentKey(seed_, 2, off / kLoadBytes, 0));
      } else {
        const Version first = kLoads + 1 + (off - preload) / kAppendBytes;
        for (uint64_t i = 0; i * kAppendBytes < len; i++) {
          FillPayload(&expected[i * kAppendBytes], kAppendBytes,
                      ContentKey(seed_, 1, version_op_[first + i] - 1, 0));
        }
      }
      if (*r != expected)
        return Status::Corruption("append read-back mismatch");
    }
    return Status::OK();
  }

 private:
  uint64_t seed_;
  BlobClient* writer_ = nullptr;
  BlobId id_ = kInvalidBlobId;
  std::vector<uint64_t> version_op_;  // version -> op id + 1
};

// --- point_mixed: 6 blobs x 16 MiB of 4 KiB pages (24,576 pages, about
// 49,000 tree nodes) read through clients whose node and location caches
// hold 4,096 entries each, so the caches run full and evicting. One-page
// reads at version lag 0-3 through a reader client, beside one-page appends
// and in-place writes (each chained to SYNC) through a writer client. Small
// ops make fixed per-op costs dominate: metadata walks, location lookups,
// the vmanager size check and client CPU.
class PointMixedWorkload : public Workload {
 public:
  static constexpr uint64_t kPsize = 4 * kKiB;
  static constexpr uint64_t kBlobs = 6;
  static constexpr uint64_t kBlobBytes = 16 * kMiB;
  static constexpr uint64_t kPages = kBlobBytes / kPsize;
  static constexpr uint64_t kLoadBytes = 4 * kMiB;
  // Entries of each client's node and location cache. The data set holds 6x
  // as many pages and 12x as many tree nodes, so reads miss as they would on
  // a data set larger than the default 65,536-entry caches, with a preload
  // short enough to keep set-up near 2 s.
  static constexpr size_t kCacheEntries = 4096;
  static constexpr uint64_t kWarmReads = 5000;
  static constexpr uint64_t kMaxLag = 3;
  // Marks the content of an update: keyed by op, not by page, because an
  // append's page index is only known once its version is.
  static constexpr uint64_t kUpdateUnit = ~uint64_t{0};

  explicit PointMixedWorkload(uint64_t seed) : seed_(seed), rng_(seed) {}
  size_t depth() const override { return 16; }

  Status Setup(Env* env) override {
    client::ClientOptions o;
    o.cache_capacity = kCacheEntries;
    writer_ = env->NewClient(o);
    reader_ = env->NewClient(o);
    blobs_.resize(kBlobs);
    for (uint64_t b = 0; b < kBlobs; b++) {
      auto id = writer_->CreateAsync(kPsize).Wait();
      if (!id.ok()) return id.status();
      blobs_[b].id = *id;
    }
    // Preload in kLoadBytes appends, one per blob in flight: a blob's next
    // append is issued once the previous one holds its version, so the
    // appends land in order.
    constexpr uint64_t kLoadPages = kLoadBytes / kPsize;
    std::vector<std::string> data(kBlobs, std::string(kLoadBytes, '\0'));
    std::vector<Version> last(kBlobs);
    for (uint64_t first = 0; first < kPages; first += kLoadPages) {
      std::vector<Future<Version>> appends;
      for (uint64_t b = 0; b < kBlobs; b++) {
        for (uint64_t p = 0; p < kLoadPages; p++) {
          FillPayload(&data[b][p * kPsize], kPsize,
                      ContentKey(seed_, b, first + p, 0));
        }
        appends.push_back(writer_->AppendAsync(blobs_[b].id, Slice(data[b])));
      }
      for (uint64_t b = 0; b < kBlobs; b++) {
        auto v = appends[b].Wait();
        if (!v.ok()) return v.status();
        last[b] = *v;
      }
    }
    for (uint64_t b = 0; b < kBlobs; b++) {
      Blob& blob = blobs_[b];
      BS_RETURN_NOT_OK(writer_->SyncAsync(blob.id, last[b]).Wait().status());
      blob.base = blob.readable = last[b];
      blob.sizes.push_back(kPages);
      blob.pages.resize(kPages);
      for (uint64_t p = 0; p < kPages; p++)
        blob.pages[p].push_back({last[b], ContentKey(seed_, b, p, 0)});
    }
    user_bytes_written_ = kBlobs * kBlobBytes;
    // Warm-up reads, depth() in flight, until both caches are full.
    std::string expected(kPsize, '\0');
    for (uint64_t i = 0; i < kWarmReads; i += depth()) {
      std::vector<std::pair<uint64_t, uint64_t>> targets;
      std::vector<Future<std::string>> reads;
      for (uint64_t j = i; j < std::min<uint64_t>(i + depth(), kWarmReads);
           j++) {
        uint64_t b = rng_.Uniform(kBlobs), p = rng_.Uniform(kPages);
        targets.emplace_back(b, p);
        reads.push_back(reader_->ReadAsync(blobs_[b].id, blobs_[b].base,
                                           p * kPsize, kPsize));
      }
      for (size_t j = 0; j < reads.size(); j++) {
        auto r = reads[j].Wait();
        if (!r.ok()) return r.status();
        auto [b, p] = targets[j];
        FillPayload(expected.data(), kPsize, ContentKey(seed_, b, p, 0));
        if (*r != expected)
          return Status::Corruption("point_mixed warm-up read mismatch");
      }
    }
    return Status::OK();
  }

  void Issue(uint64_t op, ClosedLoop* loop, OpRecord* rec) override {
    // Draw every input up front so the op stream depends on the seed only.
    uint64_t roll = rng_.Uniform(100);
    uint64_t b = rng_.Uniform(kBlobs);
    uint64_t lag = rng_.Uniform(kMaxLag + 1);
    uint64_t pick = rng_.Next();
    Blob& blob = blobs_[b];
    Pending pending{b, 0, 0};
    rec->bytes = kPsize;
    if (roll < 90) {
      rec->kind = OpKind::kRead;
      Version v =
          std::max(blob.base, blob.readable - std::min(lag, blob.readable));
      pending.page = pick % blob.sizes[v - blob.base];
      pending.version = v;
      pending_.emplace(op, pending);
      IssueRead(reader_, loop, op, blob.id, v, pending.page * kPsize, kPsize);
      return;
    }
    rec->kind = roll < 95 ? OpKind::kAppend : OpKind::kWrite;
    pending.page = rec->kind == OpKind::kAppend ? kUpdateUnit : pick % kPages;
    pending_.emplace(op, pending);
    user_bytes_written_ += kPsize;
    auto payload = std::make_shared<std::string>(
        Payload(kPsize, ContentKey(seed_, b, kUpdateUnit, op + 1)));
    IssueUpdate(writer_, loop, op, blob.id, rec->kind, std::move(payload),
                pending.page * kPsize);
  }

  bool Check(const Completion& c) override {
    auto it = pending_.find(c.op);
    Pending p = it->second;
    pending_.erase(it);
    if (!c.status.ok()) return false;
    Blob& blob = blobs_[p.blob];
    if (c.version == 0) {  // a read
      FillPayload(expected_.data(), kPsize,
                  ExpectedKey(blob, p.page, p.version));
      return c.data == expected_;
    }
    // An update is published, but the model only advances through versions
    // whose predecessors are known too, so reads see a complete history.
    blob.updates.emplace(c.version,
                         Update{p.page, ContentKey(seed_, p.blob, kUpdateUnit,
                                                   c.op + 1)});
    for (auto u = blob.updates.find(blob.readable + 1);
         u != blob.updates.end() && u->first == blob.readable + 1;
         u = blob.updates.erase(u)) {
      uint64_t pages = blob.sizes.back();
      uint64_t page = u->second.page;
      if (page == kUpdateUnit) {
        page = pages++;
        blob.pages.emplace_back();
      }
      blob.pages[page].push_back({u->first, u->second.key});
      blob.sizes.push_back(pages);
      blob.readable++;
    }
    return true;
  }

 private:
  struct Update {
    uint64_t page;  // kUpdateUnit for an append
    uint64_t key;
  };
  struct Blob {
    BlobId id = kInvalidBlobId;
    Version base = 0;      // version of the preload
    Version readable = 0;  // every version <= this is published and modeled
    std::vector<uint64_t> sizes;  // pages at version base + i
    // Per page: (version, content key) of every write, in version order.
    std::vector<std::vector<std::pair<Version, uint64_t>>> pages;
    std::map<Version, Update> updates;  // published, not yet modeled
  };
  struct Pending {
    uint64_t blob;
    uint64_t page;
    Version version;
  };

  static uint64_t ExpectedKey(const Blob& blob, uint64_t page, Version v) {
    const auto& writes = blob.pages[page];
    auto it = std::upper_bound(
        writes.begin(), writes.end(), v,
        [](Version x, const std::pair<Version, uint64_t>& w) {
          return x < w.first;
        });
    return std::prev(it)->second;
  }

  uint64_t seed_;
  Rng rng_;
  BlobClient* writer_ = nullptr;
  BlobClient* reader_ = nullptr;
  std::vector<Blob> blobs_;
  std::map<uint64_t, Pending> pending_;  // in-flight ops
  std::string expected_ = std::string(kPsize, '\0');
};

std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       uint64_t seed) {
  if (name == "scan") return std::make_unique<ScanWorkload>(seed);
  if (name == "append_shared")
    return std::make_unique<AppendSharedWorkload>(seed);
  if (name == "point_mixed") return std::make_unique<PointMixedWorkload>(seed);
  return nullptr;
}

struct StoreTotals {
  provider::PageStoreStats pages;
  dht::StoreStats dht;
};

StoreTotals ReadStoreTotals(core::EmbeddedCluster& c) {
  StoreTotals t;
  for (size_t i = 0; i < c.num_providers(); i++) {
    provider::PageStoreStats s = c.provider(i).store().GetStats();
    t.pages.pages += s.pages;
    t.pages.bytes_written += s.bytes_written;
    t.pages.read_syscalls += s.read_syscalls;
    t.pages.syncs += s.syncs;
  }
  for (size_t i = 0; i < c.num_meta(); i++) {
    dht::StoreStats s = c.dht(i).store().GetStats();
    t.dht.keys += s.keys;
    t.dht.bytes += s.bytes;
  }
  return t;
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};
using Metrics = std::vector<Metric>;

/// Per-layer breakdown from the spans of the timed ops, sorted by op and
/// then start. A layer's wall_share is the share of op time during which at
/// least one call into it was outstanding; client self time is op time
/// outside every RPC span.
void ReportLayers(const std::vector<OpRecord>& ops,
                  const std::vector<Span>& spans, Metrics* m) {
  const uint64_t nops = ops.size();
  uint64_t attributed = 0;
  for (const Span& s : spans) attributed += s.op >= 1 && s.op <= nops;

  struct LayerAgg {
    uint64_t calls = 0, errors = 0, bytes = 0;
    double busy_ns = 0;
    std::vector<double> durations_us;
  };
  std::vector<LayerAgg> layers(kNumLayers);
  std::vector<double> self_us;
  double total_ns = 0, self_ns_sum = 0;

  // Length of the union of [start, end) intervals sorted by start, clipped
  // to the op's own window.
  auto union_ns = [](const std::vector<std::pair<int64_t, int64_t>>& iv,
                     int64_t lo, int64_t hi) {
    double sum = 0;
    int64_t cur_s = 0, cur_e = INT64_MIN;
    for (auto [s, e] : iv) {
      s = std::max(s, lo);
      e = std::min(e, hi);
      if (e <= s) continue;
      if (s > cur_e) {
        if (cur_e > cur_s) sum += double(cur_e - cur_s);
        cur_s = s;
        cur_e = e;
      } else {
        cur_e = std::max(cur_e, e);
      }
    }
    if (cur_e > cur_s) sum += double(cur_e - cur_s);
    return sum;
  };

  size_t i = 0;
  while (i < spans.size() && spans[i].op == 0) i++;
  std::vector<std::pair<int64_t, int64_t>> all_iv;
  std::vector<std::vector<std::pair<int64_t, int64_t>>> layer_iv(kNumLayers);
  for (uint64_t op = 1; op <= nops; op++) {
    const OpRecord& rec = ops[op - 1];
    all_iv.clear();
    for (auto& v : layer_iv) v.clear();
    for (; i < spans.size() && spans[i].op == op; i++) {
      const Span& s = spans[i];
      LayerAgg& agg = layers[size_t(s.layer)];
      agg.calls++;
      agg.errors += !s.ok;
      agg.bytes += s.bytes;
      agg.durations_us.push_back(double(s.end_ns - s.start_ns) / 1e3);
      all_iv.emplace_back(s.start_ns, s.end_ns);
      layer_iv[size_t(s.layer)].emplace_back(s.start_ns, s.end_ns);
    }
    double d = double(rec.end_ns - rec.start_ns);
    double rpc = union_ns(all_iv, rec.start_ns, rec.end_ns);
    total_ns += d;
    self_ns_sum += d - rpc;
    self_us.push_back((d - rpc) / 1e3);
    for (size_t l = 0; l < kNumLayers; l++)
      layers[l].busy_ns += union_ns(layer_iv[l], rec.start_ns, rec.end_ns);
  }

  auto per_op = [nops](double x) { return nops ? x / double(nops) : 0.0; };
  auto share = [total_ns](double x) {
    return total_ns > 0 ? x / total_ns : 0.0;
  };
  for (Layer l : {Layer::kVmanager, Layer::kMeta, Layer::kLocator,
                  Layer::kPmanager, Layer::kProvider}) {
    const LayerAgg& agg = layers[size_t(l)];
    std::string name = LayerName(l);
    m->push_back({name + ".calls_per_op", per_op(double(agg.calls)), "count"});
    m->push_back({name + ".wall_share", share(agg.busy_ns), "fraction"});
    m->push_back({name + ".errors", double(agg.errors), "count"});
    // Only these two layers are entered on every workload; a latency over
    // zero calls would read 0 on every run.
    if (l == Layer::kVmanager || l == Layer::kProvider) {
      m->push_back({name + ".p50_us", Quantile(agg.durations_us, 0.5), "us"});
      m->push_back({name + ".p99_us", Quantile(agg.durations_us, 0.99), "us"});
    }
    if (l == Layer::kProvider)
      m->push_back({"provider.bytes_per_op", per_op(double(agg.bytes)), "B"});
  }
  m->push_back({"client.self_p50_us", Quantile(self_us, 0.5), "us"});
  m->push_back({"client.self_share", share(self_ns_sum), "fraction"});
  m->push_back({"trace.attributed_ratio",
                spans.empty() ? 1.0
                              : double(attributed) / double(spans.size()),
                "fraction"});
}

/// Chrome trace-event JSON (chrome://tracing, Perfetto) of the first ops:
/// one row per op, holding the op and the RPC spans it caused.
void WriteChromeTrace(const std::vector<OpRecord>& ops,
                      const std::vector<Span>& spans, const std::string& path) {
  const uint64_t nops = std::min<uint64_t>(ops.size(), kChromeTraceOps);
  FILE* f = fopen(path.c_str(), "w");
  if (f == nullptr) {
    fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  const int64_t t0 = ops.empty() ? 0 : ops.front().start_ns;
  fprintf(f, "{\"traceEvents\": [\n");
  bool first = true;
  auto event = [&](const char* name, const char* cat, uint64_t tid,
                   int64_t s, int64_t e) {
    fprintf(f, "%s{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
               "\"pid\": 1, \"tid\": %" PRIu64 ", \"ts\": %.3f, \"dur\": %.3f}",
            first ? "" : ",\n", name, cat, tid, double(s - t0) / 1e3,
            double(e - s) / 1e3);
    first = false;
  };
  for (uint64_t op = 1; op <= nops; op++) {
    const OpRecord& r = ops[op - 1];
    event(OpKindName(r.kind), "op", op, r.start_ns, r.end_ns);
  }
  for (const Span& s : spans) {
    if (s.op >= 1 && s.op <= nops)
      event(LayerName(s.layer), "rpc", s.op, s.start_ns, s.end_ns);
  }
  fprintf(f, "\n]}\n");
  fclose(f);
}

/// The run's page stores; sessions use subdirectories of it.
std::string RunDir(const Flags& flags) {
  return flags.data_dir + "/" + flags.workload + "-" + std::to_string(getpid());
}

/// Deletes the run's page stores once nothing is measured any more, and
/// waits for the filesystem to commit the deletion: on a filesystem mounted
/// with online discard, a later journal commit (every fdatasync) would
/// otherwise wait behind the discards, so deleting between sessions slowed
/// the next session's writes.
void RemoveRunDir(const Flags& flags, const std::string& run_dir) {
  std::error_code ec;
  std::filesystem::remove_all(run_dir, ec);
  int fd = open(flags.data_dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return;
  syncfs(fd);
  close(fd);
}

/// What one session measured.
struct Session {
  double setup_s = 0;
  double throughput_mbps = 0;
  double op_p50_ms = 0;
  double op_p99_ms = 0;
  double space_amp = 0;
  double peak_rss_mb = 0;
};

/// Store counters summed over a run's sessions: totals at each session's
/// end, plus the pagelog's reads and syncs during its timed phase.
struct RunTotals {
  double user_bytes = 0, pages = 0, log_bytes = 0, dht_keys = 0,
         dht_bytes = 0, read_syscalls = 0, syncs = 0;
};

/// One session: a fresh cluster in `dir` and the workload's setup on it
/// (together timed as setup_s), `seconds` of closed-loop ops appended to
/// *ops (op id = index in *ops + 1), then the workload's verification and
/// teardown.
Status RunSession(const Flags& flags, const std::string& dir, int index,
                  double seconds, std::vector<OpRecord>* ops, Session* out,
                  RunTotals* totals, uint64_t* failed) {
  const int64_t t0 = NowNs();
  auto started = Env::Start(dir, flags.trace);
  if (!started.ok()) return started.status();
  std::unique_ptr<Env> env = std::move(started).ValueUnsafe();
  std::unique_ptr<Workload> wl = MakeWorkload(flags.workload, flags.seed);
  BS_RETURN_NOT_OK(wl->Setup(env.get()));
  out->setup_s = double(NowNs() - t0) / 1e9;

  const StoreTotals before = ReadStoreTotals(env->cluster());
  const size_t first = ops->size();
  ClosedLoop loop;
  SpanLog::Get().set_enabled(flags.trace);
  const int64_t start = NowNs();
  loop.Run(
      wl->depth(), start + int64_t(seconds * 1e9),
      [&](uint64_t op) {
        ops->emplace_back();
        OpRecord& rec = ops->back();
        OpScope scope(first + op + 1);
        rec.start_ns = NowNs();
        wl->Issue(op, &loop, &rec);
      },
      [&](const Completion& c) {
        OpRecord& rec = (*ops)[first + c.op];
        rec.end_ns = c.end_ns;
        rec.ok = wl->Check(c);
        if (!rec.ok) {
          ++*failed;
          fprintf(stderr, "op %" PRIu64 " (%s) failed: %s\n", c.op,
                  OpKindName(rec.kind),
                  c.status.ok() ? "wrong bytes" : c.status.ToString().c_str());
        }
      });
  SpanLog::Get().set_enabled(false);
  const StoreTotals after = ReadStoreTotals(env->cluster());
  if (Status v = wl->Verify(); !v.ok()) {
    ++*failed;
    fprintf(stderr, "verification: %s\n", v.ToString().c_str());
  }

  int64_t end = start;
  uint64_t bytes = 0;
  std::vector<double> latency_ms;
  for (size_t i = first; i < ops->size(); i++) {
    const OpRecord& r = (*ops)[i];
    end = std::max(end, r.end_ns);
    if (!r.ok) continue;
    bytes += r.bytes;
    latency_ms.push_back(double(r.end_ns - r.start_ns) / 1e6);
  }
  const double user_bytes = double(wl->user_bytes_written());
  out->throughput_mbps = double(bytes) / 1e3 / (double(end - start) / 1e6);
  out->op_p50_ms = Quantile(latency_ms, 0.5);
  out->op_p99_ms = Quantile(latency_ms, 0.99);
  out->space_amp =
      double(after.pages.bytes_written + after.dht.bytes) / user_bytes;
  fprintf(stderr,
          "session %d: setup %.3f s, %zu ops, %.1f MB/s, p50 %.3f ms, "
          "p99 %.3f ms\n",
          index, out->setup_s, ops->size() - first, out->throughput_mbps,
          out->op_p50_ms, out->op_p99_ms);
  totals->user_bytes += user_bytes;
  totals->pages += double(after.pages.pages);
  totals->log_bytes += double(after.pages.bytes_written);
  totals->dht_keys += double(after.dht.keys);
  totals->dht_bytes += double(after.dht.bytes);
  totals->read_syscalls +=
      double(after.pages.read_syscalls - before.pages.read_syscalls);
  totals->syncs += double(after.pages.syncs - before.pages.syncs);
  return Status::OK();
}

// A session's records cross from the child process to the parent as raw
// bytes: both sides are the same binary, so the plain structs keep their
// layout.
template <typename T>
void PutRecords(BinaryWriter* w, const T* p, size_t n) {
  w->PutBytes(Slice(reinterpret_cast<const char*>(p), n * sizeof(T)));
}

template <typename T>
Status GetRecords(BinaryReader* r, std::vector<T>* out) {
  Slice s;
  BS_RETURN_NOT_OK(r->GetBytesView(&s));
  if (s.size() % sizeof(T) != 0)
    return Status::Corruption("session records of a partial size");
  const size_t old = out->size();
  out->resize(old + s.size() / sizeof(T));
  memcpy(static_cast<void*>(out->data() + old), s.data(), s.size());
  return Status::OK();
}

template <typename T>
Status GetRecord(BinaryReader* r, T* out) {
  std::vector<T> v;
  BS_RETURN_NOT_OK(GetRecords(r, &v));
  if (v.size() != 1) return Status::Corruption("missing session record");
  *out = v[0];
  return Status::OK();
}

/// Runs RunSession in a forked child process, so every session starts from
/// a fresh heap and its peak RSS is its own, then takes over what the child
/// recorded: its ops and spans, its Session, and the updated totals and
/// failure count. The parent never starts a thread, so forking it is safe.
Status RunSessionInChild(const Flags& flags, const std::string& run_dir,
                         int index, double seconds, std::vector<OpRecord>* ops,
                         std::vector<Span>* spans, Session* out,
                         RunTotals* totals, uint64_t* failed) {
  int fds[2];
  if (pipe(fds) != 0) return Status::IOError(strerror(errno));
  fflush(stdout);
  const pid_t parent = getpid();
  const pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    return Status::IOError(strerror(errno));
  }
  if (pid == 0) {
    // Dies with the parent, e.g. when a timeout kills it.
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (getppid() != parent) _exit(1);
    close(fds[0]);
    const size_t first = ops->size();
    Status st = RunSession(flags, run_dir + "/session-" + std::to_string(index),
                           index, seconds, ops, out, totals, failed);
    const std::vector<Span> child_spans = SpanLog::Get().Collect();
    BinaryWriter w;
    w.PutU8(uint8_t(st.code()));
    w.PutString(st.message());
    PutRecords(&w, out, 1);
    PutRecords(&w, totals, 1);
    PutRecords(&w, failed, 1);
    PutRecords(&w, ops->data() + first, ops->size() - first);
    PutRecords(&w, child_spans.data(), child_spans.size());
    const std::string& buf = w.buffer();
    for (size_t off = 0; off < buf.size();) {
      ssize_t n = write(fds[1], buf.data() + off, buf.size() - off);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) _exit(1);
      off += size_t(n);
    }
    _exit(0);
  }

  close(fds[1]);
  std::string buf;
  char chunk[1 << 16];
  for (;;) {
    ssize_t n = read(fds[0], chunk, sizeof(chunk));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    buf.append(chunk, size_t(n));
  }
  close(fds[0]);
  int wstatus = 0;
  struct rusage ru {};
  while (wait4(pid, &wstatus, 0, &ru) < 0 && errno == EINTR) {
  }
  if (!WIFEXITED(wstatus) || WEXITSTATUS(wstatus) != 0)
    return Status::Internal("session process ended abnormally");

  BinaryReader r(buf);
  uint8_t code = 0;
  std::string message;
  BS_RETURN_NOT_OK(r.GetU8(&code));
  BS_RETURN_NOT_OK(r.GetString(&message));
  if (code != uint8_t(StatusCode::kOk))
    return Status::FromCode(StatusCode(code), message);
  BS_RETURN_NOT_OK(GetRecord(&r, out));
  BS_RETURN_NOT_OK(GetRecord(&r, totals));
  BS_RETURN_NOT_OK(GetRecord(&r, failed));
  BS_RETURN_NOT_OK(GetRecords(&r, ops));
  BS_RETURN_NOT_OK(GetRecords(&r, spans));
  out->peak_rss_mb = double(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
  return r.ExpectEnd();
}

int Run(const Flags& flags) {
  if (const char* env = getenv("BLOBSEER_IO_BACKEND"); env && *env) {
    fprintf(stderr,
            "BLOBSEER_IO_BACKEND is set; unset it so every run uses the "
            "default pagelog backend\n");
    return 2;
  }
  if (!MakeWorkload(flags.workload, flags.seed)) {
    fprintf(stderr, "unknown workload %s\n", flags.workload.c_str());
    return 2;
  }
  const std::string& name = flags.workload;
  // At most one session per measured second, so a 1 s smoke run is a single
  // session.
  const int n_sessions =
      std::min(kSessions, std::max(1, int(std::floor(flags.seconds))));
  printf("# blobseer_bench workload=%s seed=%" PRIu64
         " seconds=%g sessions=%d trace=%d: tcp loopback, 4 providers, 4 dht "
         "nodes, r=1, page store log: with io backend psync (group-commit "
         "fdatasync)\n",
         name.c_str(), flags.seed, flags.seconds, n_sessions,
         flags.trace ? 1 : 0);

  // The measured time is split over independent sessions, each in its own
  // process on its own fresh cluster. Throughput drifts in phases a few
  // seconds long (how the cluster's ~100 threads share the cores, filesystem
  // journal commits), so the median over many short sessions is steadier
  // than one long session.
  const std::string run_dir = RunDir(flags);
  std::vector<OpRecord> ops;
  std::vector<Span> spans;
  std::vector<Session> sessions(n_sessions);
  RunTotals totals;
  uint64_t failed = 0;
  for (int i = 0; i < n_sessions; i++) {
    Status st = RunSessionInChild(flags, run_dir, i,
                                  flags.seconds / n_sessions, &ops, &spans,
                                  &sessions[i], &totals, &failed);
    if (!st.ok()) {
      fprintf(stderr, "session %d: %s\n", i, st.ToString().c_str());
      RemoveRunDir(flags, run_dir);
      return 1;
    }
  }
  RemoveRunDir(flags, run_dir);
  auto median = [&sessions](double Session::*field) {
    std::vector<double> v;
    for (const Session& s : sessions) v.push_back(s.*field);
    return Quantile(v, 0.5);
  };

  Metrics m;
  if (!flags.trace) {
    m.push_back({"setup_s", median(&Session::setup_s), "s"});
    m.push_back({"throughput_mbps", median(&Session::throughput_mbps), "MB/s"});
    m.push_back({"op_p50_ms", median(&Session::op_p50_ms), "ms"});
    m.push_back({"op_p99_ms", median(&Session::op_p99_ms), "ms"});
    m.push_back({"space_amp", median(&Session::space_amp), "ratio"});
    m.push_back({"peak_rss_mb", median(&Session::peak_rss_mb), "MB"});
  } else {
    const double n = double(std::max<size_t>(ops.size(), 1));
    m.push_back({"pagelog.read_syscalls_per_op", totals.read_syscalls / n,
                 "count"});
    m.push_back({"pagelog.syncs_per_op", totals.syncs / n, "count"});
    m.push_back({"pagelog.bytes_written_per_user_byte",
                 totals.log_bytes / totals.user_bytes, "ratio"});
    m.push_back({"dht.keys_per_page", totals.dht_keys / totals.pages, "count"});
    m.push_back({"dht.bytes_per_page", totals.dht_bytes / totals.pages, "B"});
    std::sort(spans.begin(), spans.end(), [](const Span& a, const Span& b) {
      return a.op != b.op ? a.op < b.op : a.start_ns < b.start_ns;
    });
    ReportLayers(ops, spans, &m);
    if (!flags.trace_json.empty())
      WriteChromeTrace(ops, spans, flags.trace_json);
    fprintf(stderr, "traced throughput %.1f MB/s\n",
            median(&Session::throughput_mbps));
  }

  for (const Metric& metric : m)
    printf("%s %s %.17g %s\n", name.c_str(), metric.name.c_str(),
           metric.value, metric.unit);
  printf("result correct %d\n", failed == 0 ? 1 : 0);
  printf("result attempted %zu\n", ops.size());
  printf("result failed %" PRIu64 "\n", failed);
  fflush(stdout);
  return failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace blobseer::bench

int main(int argc, char** argv) {
  blobseer::bench::Flags flags;
  if (!blobseer::bench::ParseFlags(argc, argv, &flags)) {
    fprintf(stderr,
            "usage: blobseer_bench --workload scan|append_shared|point_mixed "
            "[--seed N] [--seconds S] [--trace 0|1] [--data-dir DIR] "
            "[--trace-json PATH]\n");
    return 2;
  }
  return blobseer::bench::Run(flags);
}
