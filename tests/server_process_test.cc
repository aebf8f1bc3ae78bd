// Multi-process integration: spawns real `blobseer_server` daemons (the
// deployment artifact) over TCP on loopback — version manager + provider
// manager in one process, two co-deployed provider+meta daemons — and runs
// the full client interface against them.
#include <gtest/gtest.h>

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <string>
#include <vector>

#include "client/blob_client.h"
#include "client/blob_handle.h"
#include "common/clock.h"
#include "common/string_util.h"
#include "pmanager/client.h"
#include "reference_blob.h"
#include "rpc/tcp.h"

namespace blobseer {
namespace {

using testing::ReferenceBlob;
using testing::TestPayload;

std::string ServerBinary() {
  // ctest points here via the BLOBSEER_SERVER_BIN environment property
  // (tests/CMakeLists.txt); the relative candidates cover running the test
  // binary by hand from the build tree.
  if (const char* env = getenv("BLOBSEER_SERVER_BIN")) {
    if (access(env, X_OK) == 0) return env;
  }
  for (const char* candidate :
       {"../src/server/blobseer_server", "src/server/blobseer_server",
        "./blobseer_server", "build/src/server/blobseer_server"}) {
    if (access(candidate, X_OK) == 0) return candidate;
  }
  return "";
}

class ServerProcessTest : public ::testing::Test {
 protected:
  /// Extra flags for the manager daemon / every provider daemon.
  virtual std::vector<std::string> ManagerFlags() { return {}; }
  virtual std::vector<std::string> ProviderFlags() { return {}; }

  void SetUp() override {
    binary_ = ServerBinary();
    if (binary_.empty()) GTEST_SKIP() << "blobseer_server binary not found";
    // Ports derived from the pid (collisions across concurrent test runs)
    // plus a per-process sequence (each test in this binary gets fresh
    // ports, so a stale socket from the previous test can never satisfy a
    // probe), kept strictly below the ephemeral range (32768+): an
    // ephemeral listener of a concurrently-running TCP test must not be
    // able to squat our daemon's port.
    static int sequence = 0;
    int base = 10000 + ((getpid() * 13 + 1009 * sequence++) % 22000);
    manager_addr_ = StrFormat("127.0.0.1:%d", base);
    provider_addrs_ = {StrFormat("127.0.0.1:%d", base + 1),
                       StrFormat("127.0.0.1:%d", base + 2)};

    std::vector<std::string> manager_args = {"--listen=" + manager_addr_,
                                             "--roles=vmanager,pmanager"};
    for (const auto& f : ManagerFlags()) manager_args.push_back(f);
    Spawn(manager_args);
    ASSERT_TRUE(WaitReachable(manager_addr_)) << "managers did not start";
    for (const auto& addr : provider_addrs_) {
      std::vector<std::string> provider_args = {
          "--listen=" + addr, "--roles=provider,meta",
          "--pmanager=" + manager_addr_};
      for (const auto& f : ProviderFlags()) provider_args.push_back(f);
      Spawn(provider_args);
      ASSERT_TRUE(WaitReachable(addr, children_.back()))
          << "provider did not start";
    }
  }

  void TearDown() override {
    for (pid_t pid : children_) {
      kill(pid, SIGTERM);
    }
    for (pid_t pid : children_) {
      int status;
      waitpid(pid, &status, 0);
    }
  }

  void Spawn(std::vector<std::string> args) {
    pid_t pid = fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
      std::vector<char*> argv;
      argv.push_back(const_cast<char*>(binary_.c_str()));
      for (auto& a : args) argv.push_back(const_cast<char*>(a.c_str()));
      argv.push_back(nullptr);
      execv(binary_.c_str(), argv.data());
      _exit(127);
    }
    children_.push_back(pid);
  }

  bool WaitReachable(const std::string& addr, pid_t pid = -1) {
    rpc::TcpTransport probe;
    for (int i = 0; i < 200; i++) {
      if (pid > 0) {
        // A daemon that died at startup (port squatted, exec failure)
        // would otherwise read as "never came up" 10 s later; surface the
        // exit immediately instead.
        int status = 0;
        if (waitpid(pid, &status, WNOHANG) == pid) {
          ADD_FAILURE() << "daemon " << pid << " exited at startup, status "
                        << status;
          children_.erase(
              std::remove(children_.begin(), children_.end(), pid),
              children_.end());
          return false;
        }
      }
      auto ch = probe.Connect(addr);
      if (ch.ok()) {
        std::string out;
        Status s = (*ch)->Call(rpc::Method::kVmStats, Slice(""), &out);
        // Any response (even NotSupported on provider nodes) proves the
        // frame loop is up.
        if (s.ok() || !s.IsUnavailable()) return true;
      }
      RealClock::Default()->SleepForMicros(50 * 1000);
    }
    return false;
  }

  std::string binary_;
  std::string manager_addr_;
  std::vector<std::string> provider_addrs_;
  std::vector<pid_t> children_;
};

TEST_F(ServerProcessTest, FullInterfaceAgainstRealDaemons) {
  rpc::TcpTransport transport;
  client::BlobClient client(&transport, manager_addr_, manager_addr_,
                            provider_addrs_);

  auto id = client.Create(4096);
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  client::Blob blob(&client, *id);
  ReferenceBlob ref;

  auto v1 = blob.AppendSync(TestPayload(1, 10000));
  ASSERT_TRUE(v1.ok()) << v1.status().ToString();
  ref.ApplyAppend(TestPayload(1, 10000));
  auto v2 = blob.WriteSync(TestPayload(2, 5000), 2500);
  ASSERT_TRUE(v2.ok());
  ref.ApplyWrite(TestPayload(2, 5000), 2500);

  for (Version v = 1; v <= 2; v++) {
    std::string out;
    ASSERT_TRUE(blob.Read(v, 0, ref.Size(v), &out).ok());
    EXPECT_EQ(out, ref.Contents(v)) << "v" << v;
  }

  auto branch = blob.Branch(1);
  ASSERT_TRUE(branch.ok());
  auto bv = branch->AppendSync(TestPayload(3, 100));
  ASSERT_TRUE(bv.ok());
  std::string out;
  ASSERT_TRUE(branch->Read(*bv, 10000, 100, &out).ok());
  EXPECT_EQ(out, TestPayload(3, 100));
}

TEST_F(ServerProcessTest, SurvivesProviderDaemonRestart) {
  rpc::TcpTransport transport;
  client::BlobClient client(&transport, manager_addr_, manager_addr_,
                            provider_addrs_);
  auto id = client.Create(4096);
  ASSERT_TRUE(id.ok());
  client::Blob blob(&client, *id);
  ASSERT_TRUE(blob.AppendSync(TestPayload(1, 8192)).ok());

  // Kill and restart one provider daemon; its in-memory pages are gone,
  // but new writes must succeed once it re-registers under its old id.
  pid_t victim = children_.back();
  kill(victim, SIGTERM);
  int status;
  waitpid(victim, &status, 0);
  children_.pop_back();
  Spawn({"--listen=" + provider_addrs_[1], "--roles=provider,meta",
         "--pmanager=" + manager_addr_});
  ASSERT_TRUE(WaitReachable(provider_addrs_[1]));

  bool wrote = false;
  for (int i = 0; i < 6 && !wrote; i++) {
    wrote = blob.AppendSync(TestPayload(10 + i, 4096)).ok();
  }
  EXPECT_TRUE(wrote);
}

// Daemon-level liveness: providers started with --heartbeat-interval beat
// to a pmanager armed with --suspect-after/--dead-after; killing one
// daemon must surface as a dead provider in PmStats while the survivor
// keeps itself alive (docs/liveness.md).
class ServerHeartbeatTest : public ServerProcessTest {
 protected:
  std::vector<std::string> ManagerFlags() override {
    return {"--suspect-after=1", "--dead-after=2"};
  }
  std::vector<std::string> ProviderFlags() override {
    return {"--heartbeat-interval=1"};
  }
};

TEST_F(ServerHeartbeatTest, KilledDaemonExpiresToDead) {
  rpc::TcpTransport transport;
  pmanager::ProviderManagerClient pm(&transport, manager_addr_);

  // Both daemons registered and beating. Registration happens after the
  // endpoint starts serving (what SetUp waited on), so poll briefly.
  Stopwatch registering;
  uint64_t providers = 0;
  while (registering.ElapsedSeconds() < 10.0 && providers < 2) {
    auto stats = pm.FetchStatsAsync().Wait();
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    providers = stats->providers;
    if (providers < 2) RealClock::Default()->SleepForMicros(50 * 1000);
  }
  ASSERT_EQ(providers, 2u) << "daemons never registered";

  pid_t victim = children_.back();
  kill(victim, SIGKILL);  // no graceful shutdown: beats just stop
  int status;
  waitpid(victim, &status, 0);
  children_.pop_back();

  Stopwatch deadline;
  uint64_t dead = 0;
  while (deadline.ElapsedSeconds() < 15.0 && dead == 0) {
    RealClock::Default()->SleepForMicros(200 * 1000);
    auto s = pm.FetchStatsAsync().Wait();
    ASSERT_TRUE(s.ok());
    dead = s->dead;
    // The surviving daemon must never expire to dead while it beats. (It
    // may dip into suspect transiently when the machine is loaded — a 1 s
    // threshold against real scheduling — so that is not asserted.)
    EXPECT_LE(s->dead, 1u);
  }
  EXPECT_EQ(dead, 1u) << "killed daemon never expired to dead";
}

}  // namespace
}  // namespace blobseer
