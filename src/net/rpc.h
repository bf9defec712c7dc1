// Minimal request/response channel abstraction.
//
// Every REED service (key manager, storage servers) exposes a
// HandleRequest(bytes) -> bytes entry point; clients reach it through an
// RpcChannel. Two implementations cover the deployment spectrum:
//   * LocalChannel — direct call, optionally paying SimulatedLink costs both
//                    ways (unit tests, testbed-shaped benchmarks)
//   * TcpChannel   — frames over a real socket to an AsyncServer
//                    (deployment/example)
#pragma once

#include <functional>
#include <memory>

#include "util/thread_annotations.h"

#include "net/link.h"
#include "net/tcp.h"
#include "util/bytes.h"
#include "util/fault_inject.h"

namespace reed::net {

class RpcChannel {
 public:
  virtual ~RpcChannel() = default;
  [[nodiscard]] virtual Bytes Call(ByteSpan request) = 0;
};

// Wraps any handler function as a channel. With a link, the request and the
// response each pay the link's simulated transfer cost around the call; a
// null link is a plain direct call.
class LocalChannel : public RpcChannel {
 public:
  using Handler = std::function<Bytes(ByteSpan)>;
  explicit LocalChannel(Handler handler,
                        std::shared_ptr<SimulatedLink> link = nullptr)
      : handler_(std::move(handler)), link_(std::move(link)) {}

  [[nodiscard]] Bytes Call(ByteSpan request) override {
    REED_FAULT_POINT("net.rpc.call");
    if (!link_) return handler_(request);
    link_->Transfer(request.size());
    Bytes response = handler_(request);
    link_->Transfer(response.size());
    return response;
  }

 private:
  Handler handler_;
  std::shared_ptr<SimulatedLink> link_;
};

// One frame out, one frame back, serialized per channel. The serialization
// lock is held across the blocking Send/Receive by design — that is what
// keeps a request/response exchange atomic per channel — so it is an
// IoSerialMutex: the one lock type whose guard the blocking-under-lock lint
// exempts, ranked as a leaf (kIoChannel) so the deadlock detector proves no
// other lock is ever acquired while a thread is parked on the wire.
class TcpChannel : public RpcChannel {
 public:
  explicit TcpChannel(TcpTransport transport) : transport_(std::move(transport)) {}

  [[nodiscard]] Bytes Call(ByteSpan request) override {
    IoSerialLock lock(mu_);
    transport_.Send(request);
    return transport_.Receive();
  }

 private:
  IoSerialMutex mu_;
  TcpTransport transport_ REED_GUARDED_BY(mu_);
};

}  // namespace reed::net
