// Server-push publication events and the event-driven TCP front door:
// pipelined requests complete behind a held AwaitPublished (no head-of-line
// blocking), parked subscriptions resolve at publish / drain at timeout /
// survive client disconnect, a publish on one connection releases an await
// parked on another, connection churn leaves the server thread
// count flat, ChannelPool connects outside its lock, and under simnet a
// SYNC resolves within ~1 RTT of the publish in virtual time.
#include <gtest/gtest.h>

#include <dirent.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "client/blob_client.h"
#include "common/executor.h"
#include "common/future.h"
#include "core/sim_cluster.h"
#include "rpc/channel_pool.h"
#include "rpc/inproc.h"
#include "rpc/tcp.h"
#include "simnet/sim.h"
#include "vmanager/client.h"
#include "vmanager/service.h"

namespace blobseer {
namespace {

using std::chrono::milliseconds;
using std::chrono::steady_clock;

double ElapsedMs(steady_clock::time_point since) {
  return std::chrono::duration<double, std::milli>(steady_clock::now() -
                                                   since)
      .count();
}

// Spins (bounded) until `pred` holds; returns whether it did.
bool WaitFor(const std::function<bool()>& pred, int deadline_ms = 5000) {
  auto t0 = steady_clock::now();
  while (!pred()) {
    if (ElapsedMs(t0) > deadline_ms) return false;
    std::this_thread::sleep_for(milliseconds(1));
  }
  return true;
}

size_t CountThreads() {
  size_t n = 0;
  DIR* dir = opendir("/proc/self/task");
  if (!dir) return 0;
  while (dirent* e = readdir(dir)) {
    if (e->d_name[0] != '.') n++;
  }
  closedir(dir);
  return n;
}

// The tentpole regression: with the old one-thread-per-connection FIFO
// server, a held AwaitPublished stalled every request pipelined behind it
// on the same connection for the full hold. The reactor answers GetRecent
// inline and writes responses in completion order, so the pipelined calls
// finish in milliseconds while the hold stays parked.
TEST(RpcPushTcp, PipelinedRequestsCompleteBehindHeldAwait) {
  ThreadPoolExecutor timers(2);  // outlives the service: hosts watchdogs
  rpc::TcpTransport transport;
  auto svc = std::make_shared<vmanager::VersionManagerService>(nullptr,
                                                               &timers);
  auto bound = transport.Serve("127.0.0.1:0", svc);
  ASSERT_TRUE(bound.ok()) << bound.status().ToString();
  // One channel: the hold and the pipelined calls share a connection.
  vmanager::VersionManagerClient vm(&transport, *bound, /*channels=*/1);

  auto desc = vm.CreateBlobAsync(64).Wait();
  ASSERT_TRUE(desc.ok()) << desc.status().ToString();
  ASSERT_TRUE(vm.AssignVersionAsync(desc->id, true, 0, 8).Wait().ok());

  auto hold = vm.AwaitPublishedAsync(desc->id, 1, 10 * 1000 * 1000);
  ASSERT_TRUE(WaitFor([&] { return svc->core().waiter_count() == 1; }))
      << "await never parked server-side";

  auto t0 = steady_clock::now();
  for (int i = 0; i < 16; i++) {
    auto recent = vm.GetRecentAsync(desc->id).Wait();
    ASSERT_TRUE(recent.ok()) << recent.status().ToString();
  }
  // 16 round trips behind the hold: milliseconds, not the 10 s hold. The
  // generous bound keeps slow CI out of the failure band while still
  // catching any return to FIFO semantics.
  EXPECT_LT(ElapsedMs(t0), 2000.0);

  ASSERT_TRUE(vm.NotifySuccessAsync(desc->id, 1).Wait().ok());
  auto t1 = steady_clock::now();
  auto released = hold.Wait();
  EXPECT_TRUE(released.ok()) << released.status().ToString();
  EXPECT_LT(ElapsedMs(t1), 5000.0);  // pushed, not timed out at 10 s
  EXPECT_TRUE(WaitFor([&] { return svc->core().waiter_count() == 0; }));
}

// NotifySuccess runs inline on the reactor, so the AwaitPublished it
// releases completes there too, for another connection than the one just
// parsed. The reactor must flush every queued response after each epoll
// batch: flushing only the parsed connection leaves the await's response
// queued until unrelated traffic wakes the reactor, here never.
TEST(RpcPushTcp, PublishOnAnotherConnectionReleasesHeldAwait) {
  ThreadPoolExecutor timers(2);  // outlives the service: hosts watchdogs
  rpc::TcpTransport transport;
  auto svc = std::make_shared<vmanager::VersionManagerService>(nullptr,
                                                               &timers);
  auto bound = transport.Serve("127.0.0.1:0", svc);
  ASSERT_TRUE(bound.ok()) << bound.status().ToString();
  vmanager::VersionManagerClient a(&transport, *bound, /*channels=*/1);
  vmanager::VersionManagerClient b(&transport, *bound, /*channels=*/1);

  auto desc = b.CreateBlobAsync(64).Wait();
  ASSERT_TRUE(desc.ok()) << desc.status().ToString();
  ASSERT_TRUE(b.AssignVersionAsync(desc->id, true, 0, 8).Wait().ok());

  auto hold = a.AwaitPublishedAsync(desc->id, 1, UINT64_MAX);  // no timeout
  ASSERT_TRUE(WaitFor([&] { return svc->core().waiter_count() == 1; }))
      << "await never parked server-side";

  ASSERT_TRUE(b.NotifySuccessAsync(desc->id, 1).Wait().ok());
  EXPECT_TRUE(WaitFor([&] { return hold.Ready(); }, 5000))
      << "the publish never reached the other connection's await";
  if (hold.Ready()) {
    auto released = hold.Wait();
    EXPECT_TRUE(released.ok()) << released.status().ToString();
  }
}

// Satellite (a): connection churn must not accrete server threads. The
// reactor owns a fixed thread budget (one reactor + a bounded dispatch
// pool), so cycling many connections leaves /proc/self/task flat.
TEST(RpcPushTcp, ConnectionChurnKeepsThreadCountFlat) {
  rpc::TcpTransport transport;
  auto svc = std::make_shared<vmanager::VersionManagerService>();
  auto bound = transport.Serve("127.0.0.1:0", svc);
  ASSERT_TRUE(bound.ok());

  auto cycle = [&] {
    auto ch = transport.Connect(*bound);
    ASSERT_TRUE(ch.ok());
    std::string rsp;
    // ListBlobs decodes an empty request on any fresh core.
    Status st = (*ch)->Call(rpc::Method::kVmListBlobs, Slice(), &rsp);
    ASSERT_TRUE(st.ok()) << st.ToString();
  };
  cycle();  // warm-up: spins up the lazy dispatch pool
  size_t baseline = CountThreads();
  ASSERT_GT(baseline, 0u);
  for (int i = 0; i < 64; i++) cycle();
  // Client-side reader threads join with their channels; server-side the
  // reactor adds nothing per connection. Slack covers unrelated runtime
  // threads coming and going.
  EXPECT_LE(CountThreads(), baseline + 8);
}

class PushTransportTest : public ::testing::TestWithParam<std::string> {
 protected:
  void SetUp() override {
    timers_ = std::make_unique<ThreadPoolExecutor>(2);
    if (GetParam() == "tcp") {
      tcp_ = std::make_unique<rpc::TcpTransport>();
      transport_ = tcp_.get();
      serve_address_ = "127.0.0.1:0";
    } else {
      inproc_ = std::make_unique<rpc::InProcNetwork>();
      transport_ = inproc_.get();
      serve_address_ = "inproc://vmanager";
    }
    svc_ = std::make_shared<vmanager::VersionManagerService>(nullptr,
                                                             timers_.get());
    auto bound = transport_->Serve(serve_address_, svc_);
    ASSERT_TRUE(bound.ok()) << bound.status().ToString();
    address_ = *bound;
  }

  void TearDown() override {
    if (transport_) (void)transport_->StopServing(address_);
  }

  // Declared first so watchdogs outlive the transport teardown.
  std::unique_ptr<ThreadPoolExecutor> timers_;
  std::unique_ptr<rpc::TcpTransport> tcp_;
  std::unique_ptr<rpc::InProcNetwork> inproc_;
  rpc::Transport* transport_ = nullptr;
  std::string serve_address_;
  std::string address_;
  std::shared_ptr<vmanager::VersionManagerService> svc_;
};

TEST_P(PushTransportTest, SubscriptionResolvesAtPublish) {
  vmanager::VersionManagerClient vm(transport_, address_);
  auto desc = vm.CreateBlobAsync(64).Wait();
  ASSERT_TRUE(desc.ok());
  ASSERT_TRUE(vm.AssignVersionAsync(desc->id, true, 0, 8).Wait().ok());

  auto f = vm.AwaitPublishedAsync(desc->id, 1, 30 * 1000 * 1000);
  ASSERT_TRUE(WaitFor([&] { return svc_->core().waiter_count() == 1; }));
  // The parked subscription is observable through the stats RPC too (the
  // wire message gained the field this change).
  auto stats = vm.GetStatsAsync().Wait();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->sync_waiters, 1u);

  ASSERT_TRUE(vm.NotifySuccessAsync(desc->id, 1).Wait().ok());
  auto released = f.Wait();
  EXPECT_TRUE(released.ok()) << released.status().ToString();
  EXPECT_TRUE(WaitFor([&] { return svc_->core().waiter_count() == 0; }));
}

TEST_P(PushTransportTest, SubscriptionTimesOutAndDrains) {
  vmanager::VersionManagerClient vm(transport_, address_);
  auto desc = vm.CreateBlobAsync(64).Wait();
  ASSERT_TRUE(desc.ok());
  ASSERT_TRUE(vm.AssignVersionAsync(desc->id, true, 0, 8).Wait().ok());

  auto t0 = steady_clock::now();
  // 200 ms
  Status st = vm.AwaitPublishedAsync(desc->id, 1, 200 * 1000).Wait().status();
  EXPECT_TRUE(st.IsTimedOut()) << st.ToString();
  EXPECT_GE(ElapsedMs(t0), 200.0);
  // The watchdog cancelled the waiter when it fired the timeout.
  EXPECT_TRUE(WaitFor([&] { return svc_->core().waiter_count() == 0; }));
}

INSTANTIATE_TEST_SUITE_P(Transports, PushTransportTest,
                         ::testing::Values("inproc", "tcp"));

// A client that vanishes mid-hold leaves its subscription parked; the
// publish then completes into a dead connection, which the reactor drops
// without taking the server down, and the registry drains.
TEST(RpcPushTcp, DisconnectedSubscriberDoesNotCrashPublishPath) {
  ThreadPoolExecutor timers(2);
  rpc::TcpTransport transport;
  auto svc = std::make_shared<vmanager::VersionManagerService>(nullptr,
                                                               &timers);
  auto bound = transport.Serve("127.0.0.1:0", svc);
  ASSERT_TRUE(bound.ok());
  vmanager::VersionManagerClient vm(&transport, *bound);
  auto desc = vm.CreateBlobAsync(64).Wait();
  ASSERT_TRUE(desc.ok());
  ASSERT_TRUE(vm.AssignVersionAsync(desc->id, true, 0, 8).Wait().ok());

  Future<Unit> orphaned = [&] {
    vmanager::VersionManagerClient doomed(&transport, *bound, 1);
    auto f = doomed.AwaitPublishedAsync(desc->id, 1, 30 * 1000 * 1000);
    EXPECT_TRUE(WaitFor([&] { return svc->core().waiter_count() == 1; }));
    return f;
  }();  // destroys the doomed client's channel while the await is parked
  // The channel fails its in-flight call on teardown...
  EXPECT_FALSE(orphaned.Wait().ok());
  // ...but the server-side subscription is still parked; publishing fires
  // it into the dead connection.
  ASSERT_TRUE(svc->core().waiter_count() == 1);
  ASSERT_TRUE(vm.NotifySuccessAsync(desc->id, 1).Wait().ok());
  EXPECT_TRUE(WaitFor([&] { return svc->core().waiter_count() == 0; }));
  // The endpoint is still healthy for connected clients.
  auto recent = vm.GetRecentAsync(desc->id).Wait();
  ASSERT_TRUE(recent.ok());
  EXPECT_EQ(recent->version, 1u);
}

// Satellite (b): ChannelPool::Get dials outside its lock, so a slow
// connect to one endpoint cannot stall Get for every other endpoint.
TEST(ChannelPoolConnect, SlowEndpointDoesNotBlockOthers) {
  class NullChannel : public rpc::Channel {
   public:
    Status Call(rpc::Method, Slice, std::string*) override {
      return Status::OK();
    }
  };
  class GateTransport : public rpc::Transport {
   public:
    Result<std::string> Serve(const std::string&,
                              std::shared_ptr<rpc::ServiceHandler>) override {
      return Status::NotSupported("gate");
    }
    Status StopServing(const std::string&) override {
      return Status::NotSupported("gate");
    }
    Result<std::shared_ptr<rpc::Channel>> Connect(
        const std::string& address) override {
      if (address == "slow") {
        std::unique_lock<std::mutex> lock(mu_);
        slow_entered_ = true;
        cv_.notify_all();
        cv_.wait(lock, [&] { return released_; });
      }
      return {std::make_shared<NullChannel>()};
    }
    void AwaitSlowEntered() {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [&] { return slow_entered_; });
    }
    void Release() {
      std::lock_guard<std::mutex> lock(mu_);
      released_ = true;
      cv_.notify_all();
    }

   private:
    std::mutex mu_;
    std::condition_variable cv_;
    bool slow_entered_ = false;
    bool released_ = false;
  };

  GateTransport transport;
  rpc::ChannelPool pool(&transport, 2);
  std::thread slow_caller([&] {
    auto ch = pool.Get("slow");
    EXPECT_TRUE(ch.ok());
  });
  transport.AwaitSlowEntered();  // "slow" is now parked inside Connect
  auto t0 = steady_clock::now();
  auto fast = pool.Get("fast");
  EXPECT_TRUE(fast.ok());
  EXPECT_LT(ElapsedMs(t0), 2000.0);  // did not wait for the slow dial
  transport.Release();
  slow_caller.join();
}

// Acceptance criterion: with push, a SYNC against an in-flight version
// resolves within ~1 RTT of the publish in virtual time (publish request
// one way, pushed completion back the other), not at the next poll slice.
TEST(RpcPushSim, SyncResolvesWithinOneRttOfPublish) {
  simnet::SimScheduler sched;
  bool synced = false;
  double push_delay_us = -1;
  sched.Run([&] {
    core::SimClusterOptions opts;
    opts.num_provider_nodes = 2;
    opts.net.latency_us = 1000.0;  // scripted 1 ms one-way => 2 ms RTT
    core::SimCluster cluster(&sched, opts);
    auto client = cluster.NewClient();
    auto id = client->Create(64);
    ASSERT_TRUE(id.ok());
    ASSERT_TRUE(client->vmanager()
                    .AssignVersionAsync(*id, true, 0, 10)
                    .Wait(client->executor())
                    .ok());
    double t_pub = -1;
    sched.Spawn([&] {
      sched.SleepFor(300 * 1000);  // publish 300 virtual ms in
      t_pub = sched.Now();
      EXPECT_TRUE(client->vmanager()
                      .NotifySuccessAsync(*id, 1)
                      .Wait(client->executor())
                      .ok());
    });
    auto f = client->SyncAsync(*id, 1, client::BlobClient::kNoTimeout);
    bool ok = f.Wait(client->executor()).ok();
    synced = ok;
    push_delay_us = sched.Now() - t_pub;
  });
  EXPECT_TRUE(synced);
  // Publish travels client->manager (1 ms) before the waiter fires, then
  // the pushed completion travels manager->client (1 ms): ~2 ms plus CPU
  // charges. Far below both the old 250 ms slice and any poll interval.
  EXPECT_GE(push_delay_us, 2 * 1000.0);
  EXPECT_LE(push_delay_us, 10 * 1000.0);
}

}  // namespace
}  // namespace blobseer
