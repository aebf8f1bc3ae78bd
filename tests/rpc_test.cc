// RPC layer tests: in-process and TCP transports, error propagation,
// composite dispatch, channel pooling, concurrent calls.
#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <mutex>
#include <set>
#include <thread>

#include "common/executor.h"
#include "common/future.h"

#include "common/serde.h"
#include "rpc/call.h"
#include "rpc/channel_pool.h"
#include "rpc/inproc.h"
#include "rpc/service.h"
#include "rpc/tcp.h"

namespace blobseer::rpc {
namespace {

// Echo service on the DHT method block; also exposes a failing method.
class EchoService : public ServiceHandler {
 public:
  Status Handle(Method method, Slice payload, std::string* response) override {
    calls_.fetch_add(1);
    if (method == Method::kDhtPut) {
      *response = payload.ToString();
      return Status::OK();
    }
    if (method == Method::kDhtGet) {
      return Status::NotFound("echo: no such key");
    }
    return Status::NotSupported("echo");
  }
  int calls() const { return calls_.load(); }

 private:
  std::atomic<int> calls_{0};
};

// Echoes like EchoService, but kDhtDelete may wait: it parks on a latch
// until Release(). kDhtPut never waits, so TCP answers it on the reactor.
// Records the thread each method ran on.
class LatchService : public ServiceHandler {
 public:
  Status Handle(Method method, Slice payload, std::string* response) override {
    std::unique_lock<std::mutex> lock(mu_);
    threads_[method].insert(std::this_thread::get_id());
    if (method == Method::kDhtDelete) {
      parked_ = true;
      cv_.notify_all();
      cv_.wait(lock, [&] { return released_; });
    }
    *response = payload.ToString();
    return Status::OK();
  }
  bool Blocks(Method method) const override {
    return method == Method::kDhtDelete;
  }

  bool WaitParked() {
    std::unique_lock<std::mutex> lock(mu_);
    return cv_.wait_for(lock, std::chrono::seconds(5),
                        [&] { return parked_; });
  }
  void Release() {
    std::lock_guard<std::mutex> lock(mu_);
    released_ = true;
    cv_.notify_all();
  }
  std::set<std::thread::id> ThreadsOf(Method method) {
    std::lock_guard<std::mutex> lock(mu_);
    return threads_[method];
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool parked_ = false;
  bool released_ = false;
  std::map<Method, std::set<std::thread::id>> threads_;
};

class TransportTest : public ::testing::TestWithParam<std::string> {
 protected:
  void SetUp() override {
    if (GetParam() == "tcp") {
      tcp_ = std::make_unique<TcpTransport>();
      transport_ = tcp_.get();
      serve_address_ = "127.0.0.1:0";
    } else {
      inproc_ = std::make_unique<InProcNetwork>();
      transport_ = inproc_.get();
      serve_address_ = "inproc://echo";
    }
  }

  std::unique_ptr<TcpTransport> tcp_;
  std::unique_ptr<InProcNetwork> inproc_;
  Transport* transport_ = nullptr;
  std::string serve_address_;
};

TEST_P(TransportTest, RoundTrip) {
  auto svc = std::make_shared<EchoService>();
  auto bound = transport_->Serve(serve_address_, svc);
  ASSERT_TRUE(bound.ok()) << bound.status().ToString();

  auto ch = transport_->Connect(*bound);
  ASSERT_TRUE(ch.ok());
  std::string out;
  ASSERT_TRUE((*ch)->Call(Method::kDhtPut, Slice("hello"), &out).ok());
  EXPECT_EQ(out, "hello");
  EXPECT_EQ(svc->calls(), 1);
  ASSERT_TRUE(transport_->StopServing(*bound).ok());
}

TEST_P(TransportTest, EmptyAndLargePayloads) {
  auto svc = std::make_shared<EchoService>();
  auto bound = transport_->Serve(serve_address_, svc);
  ASSERT_TRUE(bound.ok());
  auto ch = transport_->Connect(*bound);
  ASSERT_TRUE(ch.ok());

  std::string out;
  ASSERT_TRUE((*ch)->Call(Method::kDhtPut, Slice(""), &out).ok());
  EXPECT_TRUE(out.empty());

  std::string big(3 * 1024 * 1024, 'x');
  big[1024] = '\0';  // binary-safe
  ASSERT_TRUE((*ch)->Call(Method::kDhtPut, Slice(big), &out).ok());
  EXPECT_EQ(out, big);
  ASSERT_TRUE(transport_->StopServing(*bound).ok());
}

TEST_P(TransportTest, RemoteErrorPropagatesCodeAndMessage) {
  auto svc = std::make_shared<EchoService>();
  auto bound = transport_->Serve(serve_address_, svc);
  ASSERT_TRUE(bound.ok());
  auto ch = transport_->Connect(*bound);
  ASSERT_TRUE(ch.ok());
  std::string out;
  Status s = (*ch)->Call(Method::kDhtGet, Slice("k"), &out);
  EXPECT_TRUE(s.IsNotFound());
  EXPECT_EQ(s.message(), "echo: no such key");
  ASSERT_TRUE(transport_->StopServing(*bound).ok());
}

TEST_P(TransportTest, ConcurrentCallsThroughPool) {
  auto svc = std::make_shared<EchoService>();
  auto bound = transport_->Serve(serve_address_, svc);
  ASSERT_TRUE(bound.ok());

  ChannelPool pool(transport_, 4);
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; t++) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 50; i++) {
        auto ch = pool.Get(*bound);
        if (!ch.ok()) {
          failures++;
          continue;
        }
        std::string payload = "msg-" + std::to_string(t * 1000 + i);
        std::string out;
        Status s = (*ch)->Call(Method::kDhtPut, Slice(payload), &out);
        if (!s.ok() || out != payload) failures++;
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(svc->calls(), 400);
  ASSERT_TRUE(transport_->StopServing(*bound).ok());
}

TEST_P(TransportTest, StoppedServerBecomesUnavailable) {
  auto svc = std::make_shared<EchoService>();
  auto bound = transport_->Serve(serve_address_, svc);
  ASSERT_TRUE(bound.ok());
  auto ch = transport_->Connect(*bound);
  ASSERT_TRUE(ch.ok());
  std::string out;
  ASSERT_TRUE((*ch)->Call(Method::kDhtPut, Slice("x"), &out).ok());
  ASSERT_TRUE(transport_->StopServing(*bound).ok());
  Status s = (*ch)->Call(Method::kDhtPut, Slice("y"), &out);
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsUnavailable() || s.IsIOError()) << s.ToString();
}

TEST_P(TransportTest, AsyncCallCompletes) {
  auto svc = std::make_shared<EchoService>();
  auto bound = transport_->Serve(serve_address_, svc);
  ASSERT_TRUE(bound.ok());
  auto ch = transport_->Connect(*bound);
  ASSERT_TRUE(ch.ok());
  auto done = std::make_shared<CondVarWaitEvent>();
  Status st = Status::Internal("callback never ran");
  std::string out;
  (*ch)->CallAsync(Method::kDhtPut, Slice("hello"),
                   [&, done](Status s, std::string payload) {
                     st = std::move(s);
                     out = std::move(payload);
                     done->Signal();
                   });
  done->Await();
  EXPECT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(out, "hello");
  ASSERT_TRUE(transport_->StopServing(*bound).ok());
}

TEST_P(TransportTest, AsyncErrorCarriesCodeAndMessage) {
  auto svc = std::make_shared<EchoService>();
  auto bound = transport_->Serve(serve_address_, svc);
  ASSERT_TRUE(bound.ok());
  auto ch = transport_->Connect(*bound);
  ASSERT_TRUE(ch.ok());
  auto done = std::make_shared<CondVarWaitEvent>();
  Status st;
  (*ch)->CallAsync(Method::kDhtGet, Slice("k"),
                   [&, done](Status s, std::string) {
                     st = std::move(s);
                     done->Signal();
                   });
  done->Await();
  EXPECT_TRUE(st.IsNotFound()) << st.ToString();
  EXPECT_EQ(st.message(), "echo: no such key");
  ASSERT_TRUE(transport_->StopServing(*bound).ok());
}

TEST_P(TransportTest, ManyInFlightAsyncCallsOnOneChannel) {
  // The pipelined path: N requests issued before any response is consumed;
  // every callback must fire exactly once with its own payload.
  auto svc = std::make_shared<EchoService>();
  auto bound = transport_->Serve(serve_address_, svc);
  ASSERT_TRUE(bound.ok());
  auto ch = transport_->Connect(*bound);
  ASSERT_TRUE(ch.ok());
  constexpr int kCalls = 64;
  std::mutex mu;
  std::condition_variable cv;
  int remaining = kCalls;
  std::atomic<int> mismatches{0};
  for (int i = 0; i < kCalls; i++) {
    std::string payload = "pipelined-" + std::to_string(i);
    (*ch)->CallAsync(Method::kDhtPut, Slice(payload),
                     [&, expect = payload](Status s, std::string out) {
                       if (!s.ok() || out != expect) mismatches++;
                       std::lock_guard<std::mutex> lock(mu);
                       if (--remaining == 0) cv.notify_all();
                     });
  }
  std::unique_lock<std::mutex> lock(mu);
  cv.wait(lock, [&] { return remaining == 0; });
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(svc->calls(), kCalls);
  ASSERT_TRUE(transport_->StopServing(*bound).ok());
}

TEST_P(TransportTest, AsyncCallAfterServerStopFails) {
  auto svc = std::make_shared<EchoService>();
  auto bound = transport_->Serve(serve_address_, svc);
  ASSERT_TRUE(bound.ok());
  auto ch = transport_->Connect(*bound);
  ASSERT_TRUE(ch.ok());
  std::string out;
  ASSERT_TRUE((*ch)->Call(Method::kDhtPut, Slice("x"), &out).ok());
  ASSERT_TRUE(transport_->StopServing(*bound).ok());
  auto done = std::make_shared<CondVarWaitEvent>();
  Status st;
  (*ch)->CallAsync(Method::kDhtPut, Slice("y"),
                   [&, done](Status s, std::string) {
                     st = std::move(s);
                     done->Signal();
                   });
  done->Await();
  EXPECT_FALSE(st.ok());
  EXPECT_TRUE(st.IsUnavailable() || st.IsIOError()) << st.ToString();
}

TEST_P(TransportTest, TypedAsyncCallThroughFuture) {
  auto svc = std::make_shared<EchoService>();
  auto bound = transport_->Serve(serve_address_, svc);
  ASSERT_TRUE(bound.ok());
  ChannelPool pool(transport_, 2);
  auto ch = pool.Get(*bound);
  ASSERT_TRUE(ch.ok());
  struct Echo {
    std::string text;
    BS_FIELDS(Echo, text)
  };
  auto f = CallMethodAsync<Echo, Echo>(ch->get(), Method::kDhtPut,
                                       Echo{"typed-async"});
  auto result = f.Wait();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->text, "typed-async");
  ASSERT_TRUE(transport_->StopServing(*bound).ok());
}

INSTANTIATE_TEST_SUITE_P(Transports, TransportTest,
                         ::testing::Values("inproc", "tcp"));

TEST(InProcTest, DuplicateServeFails) {
  InProcNetwork net;
  auto svc = std::make_shared<EchoService>();
  ASSERT_TRUE(net.Serve("inproc://a", svc).ok());
  EXPECT_TRUE(net.Serve("inproc://a", svc).status().IsAlreadyExists());
  EXPECT_EQ(net.endpoint_count(), 1u);
}

TEST(InProcTest, ConnectToUnknownEndpointFails) {
  InProcNetwork net;
  EXPECT_TRUE(net.Connect("inproc://nope").status().IsUnavailable());
}

TEST(TcpTest, BadAddressRejected) {
  TcpTransport t;
  auto svc = std::make_shared<EchoService>();
  EXPECT_FALSE(t.Serve("nonsense", svc).ok());
  EXPECT_FALSE(t.Serve("host:99999", svc).ok());
}

TEST(TcpTest, ConnectFailureIsUnavailable) {
  TcpTransport t;
  auto ch = t.Connect("127.0.0.1:1");  // nothing listens on port 1
  ASSERT_TRUE(ch.ok());  // lazy connect
  std::string out;
  Status s = (*ch)->Call(Method::kDhtPut, Slice("x"), &out);
  EXPECT_TRUE(s.IsUnavailable()) << s.ToString();
}

TEST(TcpTest, WaitingMethodDoesNotStallInlineOnes) {
  TcpTransport t;
  auto svc = std::make_shared<LatchService>();
  // Opens the latch before the transport joins its dispatch pool, also when
  // an assertion below fails.
  struct ReleaseOnExit {
    LatchService* svc;
    ~ReleaseOnExit() { svc->Release(); }
  } release_on_exit{svc.get()};
  auto bound = t.Serve("127.0.0.1:0", svc);
  ASSERT_TRUE(bound.ok()) << bound.status().ToString();
  auto ch = t.Connect(*bound);
  ASSERT_TRUE(ch.ok());

  auto parked_done = std::make_shared<CondVarWaitEvent>();
  std::atomic<bool> parked_finished{false};
  Status parked_status = Status::Internal("never completed");
  std::string parked_out;
  (*ch)->CallAsync(Method::kDhtDelete, Slice("held"),
                   [&, parked_done](Status s, std::string out) {
                     parked_status = std::move(s);
                     parked_out = std::move(out);
                     parked_finished = true;
                     parked_done->Signal();
                   });
  ASSERT_TRUE(svc->WaitParked())
      << "the waiting call never reached its handler";

  // Pipelined behind the parked call on the same connection.
  constexpr int kCalls = 16;
  std::mutex mu;
  std::condition_variable cv;
  int remaining = kCalls;
  std::atomic<int> mismatches{0};
  for (int i = 0; i < kCalls; i++) {
    std::string payload = "inline-" + std::to_string(i);
    (*ch)->CallAsync(Method::kDhtPut, Slice(payload),
                     [&, expect = payload](Status s, std::string out) {
                       if (!s.ok() || out != expect) mismatches++;
                       std::lock_guard<std::mutex> lock(mu);
                       if (--remaining == 0) cv.notify_all();
                     });
  }
  {
    std::unique_lock<std::mutex> lock(mu);
    ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(5),
                            [&] { return remaining == 0; }))
        << remaining << " inline calls stalled behind the parked one";
  }
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_FALSE(parked_finished.load());

  // Every inline call ran on the one reactor thread, which is not the
  // dispatch worker holding the parked call.
  std::set<std::thread::id> inline_threads = svc->ThreadsOf(Method::kDhtPut);
  std::set<std::thread::id> parked_threads =
      svc->ThreadsOf(Method::kDhtDelete);
  EXPECT_EQ(inline_threads.size(), 1u);
  ASSERT_EQ(parked_threads.size(), 1u);
  EXPECT_EQ(inline_threads.count(*parked_threads.begin()), 0u);

  svc->Release();
  parked_done->Await();
  EXPECT_TRUE(parked_status.ok()) << parked_status.ToString();
  EXPECT_EQ(parked_out, "held");
  ASSERT_TRUE(t.StopServing(*bound).ok());
}

TEST(CompositeHandlerTest, RoutesByMethodBlock) {
  CompositeHandler composite;
  auto echo = std::make_shared<EchoService>();
  composite.Register(100, echo);
  std::string out;
  EXPECT_TRUE(composite.Handle(Method::kDhtPut, Slice("a"), &out).ok());
  EXPECT_TRUE(composite.Handle(Method::kProviderRead, Slice("a"), &out)
                  .IsNotSupported());
  // Blocks is the routed handler's answer, and true for a method no
  // service owns.
  EXPECT_TRUE(composite.Blocks(Method::kDhtPut));  // EchoService's default
  EXPECT_TRUE(composite.Blocks(Method::kProviderRead));
  CompositeHandler latched;
  latched.Register(100, std::make_shared<LatchService>());
  EXPECT_FALSE(latched.Blocks(Method::kDhtPut));
  EXPECT_TRUE(latched.Blocks(Method::kDhtDelete));
  EXPECT_TRUE(latched.Blocks(Method::kProviderRead));
}

// Typed call helpers.
struct PingMsg {
  uint64_t value = 0;
  BS_FIELDS(PingMsg, value)
};

class TypedService : public ServiceHandler {
 public:
  Status Handle(Method method, Slice payload, std::string* response) override {
    if (method != Method::kDhtPut) return Status::NotSupported("typed");
    return DispatchTyped<PingMsg, PingMsg>(
        payload, response, [](const PingMsg& req, PingMsg* rsp) {
          rsp->value = req.value + 1;
          return Status::OK();
        });
  }
};

TEST(TypedCallTest, EncodesAndDecodes) {
  InProcNetwork net;
  ASSERT_TRUE(net.Serve("inproc://typed", std::make_shared<TypedService>()).ok());
  auto ch = net.Connect("inproc://typed");
  ASSERT_TRUE(ch.ok());
  auto rsp =
      CallMethodAsync<PingMsg, PingMsg>(ch->get(), Method::kDhtPut, {41})
          .Wait();
  ASSERT_TRUE(rsp.ok()) << rsp.status().ToString();
  EXPECT_EQ(rsp->value, 42u);
}

TEST(TypedCallTest, MalformedPayloadIsCorruption) {
  TypedService svc;
  std::string out;
  EXPECT_TRUE(svc.Handle(Method::kDhtPut, Slice("xx"), &out).IsCorruption());
}

}  // namespace
}  // namespace blobseer::rpc
