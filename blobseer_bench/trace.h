// Per-layer tracing of one benchmark run, recorded entirely from outside the
// program: the benchmark hands its BlobClients decorators of the public
// rpc::Transport and Executor interfaces. The transport decorator times
// every RPC the client issues and names the layer it enters (by method
// block, and for DHT calls by key namespace); the executor decorator carries
// the id of the client operation that caused each continuation across
// thread hops, so every span is attributed to the op the generator issued.
#ifndef BLOBSEER_BENCH_TRACE_H_
#define BLOBSEER_BENCH_TRACE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/executor.h"
#include "rpc/transport.h"

namespace blobseer::bench {

/// Layers a client RPC can enter. DHT calls split by key namespace:
/// 'N' keys are metadata tree nodes, 'L' keys page location entries.
enum class Layer : uint8_t {
  kVmanager,
  kMeta,
  kLocator,
  kPmanager,
  kProvider,
  kOther,
};
inline constexpr size_t kNumLayers = 6;
const char* LayerName(Layer layer);

/// Monotonic nanoseconds (steady clock).
int64_t NowNs();

/// Id of the client op the calling thread currently works for (0 = none).
uint64_t CurrentOp();

/// Sets the calling thread's op id for the scope's lifetime.
class OpScope {
 public:
  explicit OpScope(uint64_t op);
  ~OpScope();
  OpScope(const OpScope&) = delete;
  OpScope& operator=(const OpScope&) = delete;

 private:
  uint64_t saved_;
};

/// One RPC as seen by the client: issue to completion callback.
struct Span {
  uint64_t op = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint64_t bytes = 0;  // request + response payload
  Layer layer = Layer::kOther;
  bool ok = true;
};

/// Process-wide span sink. Each thread appends to its own buffer, so the
/// hot path takes only an uncontended lock; Collect merges the buffers once
/// the run has quiesced.
class SpanLog {
 public:
  static SpanLog& Get();

  void set_enabled(bool on) { enabled_.store(on, std::memory_order_release); }
  bool enabled() const { return enabled_.load(std::memory_order_acquire); }

  void Record(const Span& span);
  std::vector<Span> Collect();

 private:
  struct Buffer {
    std::mutex mu;
    std::vector<Span> spans;
  };
  Buffer* Local();

  std::atomic<bool> enabled_{false};
  std::mutex mu_;
  std::vector<std::unique_ptr<Buffer>> buffers_;
};

/// Transport decorator: servers pass through; client channels are wrapped
/// so every Call/CallAsync records a span into SpanLog::Get().
class TracingTransport : public rpc::Transport {
 public:
  explicit TracingTransport(rpc::Transport* inner) : inner_(inner) {}

  Result<std::string> Serve(const std::string& address,
                            std::shared_ptr<rpc::ServiceHandler> h) override {
    return inner_->Serve(address, std::move(h));
  }
  Status StopServing(const std::string& address) override {
    return inner_->StopServing(address);
  }
  Result<std::shared_ptr<rpc::Channel>> Connect(
      const std::string& address) override;
  bool binds_at_connect() const override { return inner_->binds_at_connect(); }

 private:
  rpc::Transport* inner_;
};

/// Executor decorator: tasks and ParallelFor bodies run under the op id
/// that was current when they were handed over.
class TracingExecutor : public Executor {
 public:
  explicit TracingExecutor(Executor* inner) : inner_(inner) {}

  Status ParallelFor(size_t n, size_t max_parallel,
                     const std::function<Status(size_t)>& fn) override;
  void Schedule(std::function<void()> fn) override;
  std::unique_ptr<WaitEvent> MakeWaitEvent() override {
    return inner_->MakeWaitEvent();
  }

 private:
  Executor* inner_;
};

}  // namespace blobseer::bench

#endif  // BLOBSEER_BENCH_TRACE_H_
