// Test transport wrapper: records every call made through it (method,
// endpoint, request bytes, and the order in which calls started and
// resolved) and can fail chosen calls before they reach the server, as if
// the endpoint were down for that call. Servers are served by the wrapped
// transport; only clients built on the wrapper are observed.
#ifndef BLOBSEER_TESTS_RECORDING_TRANSPORT_H_
#define BLOBSEER_TESTS_RECORDING_TRANSPORT_H_

#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "rpc/transport.h"

namespace blobseer::testing {

class RecordingTransport : public rpc::Transport {
 public:
  struct Call {
    rpc::Method method{};
    std::string address;
    std::string request;
    /// Event sequence numbers: every start and every resolution draws the
    /// next number, so `a.finished < b.started` means a resolved before b
    /// was issued. `finished` is 0 while the call is in flight.
    uint64_t started = 0;
    uint64_t finished = 0;
    Status status;
  };
  /// Consulted before each call is sent; a non-OK status fails the call
  /// without sending it.
  using Fault =
      std::function<Status(rpc::Method method, const std::string& address)>;

  explicit RecordingTransport(rpc::Transport* inner) : inner_(inner) {}

  Result<std::string> Serve(const std::string& address,
                            std::shared_ptr<rpc::ServiceHandler> h) override {
    return inner_->Serve(address, std::move(h));
  }
  Status StopServing(const std::string& address) override {
    return inner_->StopServing(address);
  }
  Result<std::shared_ptr<rpc::Channel>> Connect(
      const std::string& address) override {
    auto ch = inner_->Connect(address);
    if (!ch.ok()) return ch.status();
    return std::shared_ptr<rpc::Channel>(
        std::make_shared<Channel>(this, address, std::move(*ch)));
  }
  bool binds_at_connect() const override {
    return inner_->binds_at_connect();
  }

  void set_fault(Fault fault) {
    std::lock_guard<std::mutex> lock(mu_);
    fault_ = std::make_shared<Fault>(std::move(fault));
  }

  /// Snapshot of every call recorded so far, in start order.
  std::vector<Call> calls() const {
    std::lock_guard<std::mutex> lock(mu_);
    return calls_;
  }

 private:
  class Channel : public rpc::Channel {
   public:
    Channel(RecordingTransport* owner, std::string address,
            std::shared_ptr<rpc::Channel> inner)
        : owner_(owner), address_(std::move(address)), inner_(std::move(inner)) {}

    Status Call(rpc::Method method, Slice request,
                std::string* response) override {
      size_t i = owner_->Start(method, address_, request);
      Status st = owner_->FaultFor(method, address_);
      if (st.ok()) st = inner_->Call(method, request, response);
      owner_->Finish(i, st);
      return st;
    }

    void CallAsync(rpc::Method method, Slice request,
                   rpc::CallCallback done) override {
      size_t i = owner_->Start(method, address_, request);
      Status fault = owner_->FaultFor(method, address_);
      if (!fault.ok()) {
        owner_->Finish(i, fault);
        done(std::move(fault), std::string());
        return;
      }
      inner_->CallAsync(method, request,
                        [owner = owner_, i, done = std::move(done)](
                            Status st, std::string rsp) {
                          owner->Finish(i, st);
                          done(std::move(st), std::move(rsp));
                        });
    }

   private:
    RecordingTransport* owner_;
    std::string address_;
    std::shared_ptr<rpc::Channel> inner_;
  };

  size_t Start(rpc::Method method, const std::string& address,
               Slice request) {
    std::lock_guard<std::mutex> lock(mu_);
    calls_.push_back(Call{method, address, request.ToString(), ++seq_, 0, {}});
    return calls_.size() - 1;
  }

  void Finish(size_t i, const Status& st) {
    std::lock_guard<std::mutex> lock(mu_);
    calls_[i].finished = ++seq_;
    calls_[i].status = st;
  }

  Status FaultFor(rpc::Method method, const std::string& address) {
    std::shared_ptr<Fault> fault;
    {
      std::lock_guard<std::mutex> lock(mu_);
      fault = fault_;
    }
    return fault && *fault ? (*fault)(method, address) : Status::OK();
  }

  rpc::Transport* inner_;
  mutable std::mutex mu_;
  std::vector<Call> calls_;
  uint64_t seq_ = 0;
  std::shared_ptr<Fault> fault_;
};

}  // namespace blobseer::testing

#endif  // BLOBSEER_TESTS_RECORDING_TRANSPORT_H_
