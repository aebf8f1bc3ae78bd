#include "trace.h"

#include <chrono>
#include <utility>

#include "common/serde.h"
#include "dht/messages.h"

namespace blobseer::bench {

namespace {

thread_local uint64_t t_current_op = 0;

Layer DhtLayer(rpc::Method method, Slice request) {
  BinaryReader r(request);
  std::string key;
  if (method == rpc::Method::kDhtMultiGet) {
    dht::MultiGetRequest req;
    if (!req.DecodeFrom(&r).ok() || req.keys.empty()) return Layer::kOther;
    key = std::move(req.keys.front());
  } else {
    // Put, Get, Delete and Cas requests all lead with the key.
    dht::GetRequest req;
    if (!req.DecodeFrom(&r).ok()) return Layer::kOther;
    key = std::move(req.key);
  }
  if (key.empty()) return Layer::kOther;
  if (key[0] == 'N') return Layer::kMeta;
  if (key[0] == 'L') return Layer::kLocator;
  return Layer::kOther;
}

Layer Classify(rpc::Method method, Slice request) {
  switch (static_cast<uint32_t>(method) / 100) {
    case 1:
      return DhtLayer(method, request);
    case 2:
      return Layer::kProvider;
    case 3:
      return Layer::kPmanager;
    case 4:
      return Layer::kVmanager;
    default:
      return Layer::kOther;
  }
}

class TracingChannel : public rpc::Channel {
 public:
  explicit TracingChannel(std::shared_ptr<rpc::Channel> inner)
      : inner_(std::move(inner)) {}

  Status Call(rpc::Method method, Slice request,
              std::string* response) override {
    Span span{CurrentOp(), NowNs(), 0, request.size(),
              Classify(method, request), true};
    Status st = inner_->Call(method, request, response);
    span.end_ns = NowNs();
    span.bytes += response->size();
    span.ok = st.ok();
    SpanLog::Get().Record(span);
    return st;
  }

  void CallAsync(rpc::Method method, Slice request,
                 rpc::CallCallback done) override {
    Span span{CurrentOp(), NowNs(), 0, request.size(),
              Classify(method, request), true};
    inner_->CallAsync(
        method, request,
        [span, done = std::move(done)](Status st, std::string out) mutable {
          span.end_ns = NowNs();
          span.bytes += out.size();
          span.ok = st.ok();
          SpanLog::Get().Record(span);
          OpScope scope(span.op);
          done(std::move(st), std::move(out));
        });
  }

 private:
  std::shared_ptr<rpc::Channel> inner_;
};

}  // namespace

const char* LayerName(Layer layer) {
  switch (layer) {
    case Layer::kVmanager:
      return "vmanager";
    case Layer::kMeta:
      return "meta";
    case Layer::kLocator:
      return "locator";
    case Layer::kPmanager:
      return "pmanager";
    case Layer::kProvider:
      return "provider";
    case Layer::kOther:
      break;
  }
  return "other";
}

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

uint64_t CurrentOp() { return t_current_op; }

OpScope::OpScope(uint64_t op) : saved_(t_current_op) { t_current_op = op; }
OpScope::~OpScope() { t_current_op = saved_; }

SpanLog& SpanLog::Get() {
  static SpanLog log;
  return log;
}

SpanLog::Buffer* SpanLog::Local() {
  thread_local Buffer* local = nullptr;
  if (local == nullptr) {
    std::lock_guard<std::mutex> lock(mu_);
    buffers_.push_back(std::make_unique<Buffer>());
    local = buffers_.back().get();
  }
  return local;
}

void SpanLog::Record(const Span& span) {
  if (!enabled()) return;
  Buffer* b = Local();
  std::lock_guard<std::mutex> lock(b->mu);
  b->spans.push_back(span);
}

std::vector<Span> SpanLog::Collect() {
  std::vector<Span> all;
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& b : buffers_) {
    std::lock_guard<std::mutex> block(b->mu);
    all.insert(all.end(), b->spans.begin(), b->spans.end());
    b->spans.clear();
  }
  return all;
}

Result<std::shared_ptr<rpc::Channel>> TracingTransport::Connect(
    const std::string& address) {
  auto ch = inner_->Connect(address);
  if (!ch.ok()) return ch.status();
  return std::shared_ptr<rpc::Channel>(
      std::make_shared<TracingChannel>(std::move(ch).ValueUnsafe()));
}

Status TracingExecutor::ParallelFor(size_t n, size_t max_parallel,
                                    const std::function<Status(size_t)>& fn) {
  uint64_t op = CurrentOp();
  return inner_->ParallelFor(n, max_parallel, [op, &fn](size_t i) {
    OpScope scope(op);
    return fn(i);
  });
}

void TracingExecutor::Schedule(std::function<void()> fn) {
  uint64_t op = CurrentOp();
  inner_->Schedule([op, fn = std::move(fn)] {
    OpScope scope(op);
    fn();
  });
}

}  // namespace blobseer::bench
