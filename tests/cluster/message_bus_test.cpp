#include "cluster/message_bus.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <thread>

namespace hyades::cluster {
namespace {

TEST(MessageBus, SendRecvSameThread) {
  MessageBus bus(4);
  bus.send(2, Message{0, 7, {1.0, 2.0}, 3.5});
  const Message m = bus.recv(2, 0, 7);
  EXPECT_EQ(m.src, 0);
  EXPECT_EQ(m.tag, 7);
  EXPECT_EQ(m.data, (std::vector<double>{1.0, 2.0}));
  EXPECT_DOUBLE_EQ(m.stamp_us, 3.5);
}

TEST(MessageBus, FifoPerSourceAndTag) {
  MessageBus bus(2);
  for (int i = 0; i < 10; ++i) {
    bus.send(1, Message{0, 5, {static_cast<double>(i)}, 0});
  }
  for (int i = 0; i < 10; ++i) {
    EXPECT_DOUBLE_EQ(bus.recv(1, 0, 5).data[0], i);
  }
}

TEST(MessageBus, TagsAreIndependent) {
  MessageBus bus(2);
  bus.send(1, Message{0, 1, {1.0}, 0});
  bus.send(1, Message{0, 2, {2.0}, 0});
  EXPECT_DOUBLE_EQ(bus.recv(1, 0, 2).data[0], 2.0);
  EXPECT_DOUBLE_EQ(bus.recv(1, 0, 1).data[0], 1.0);
}

TEST(MessageBus, SourcesAreIndependent) {
  MessageBus bus(3);
  bus.send(2, Message{0, 1, {10.0}, 0});
  bus.send(2, Message{1, 1, {20.0}, 0});
  EXPECT_DOUBLE_EQ(bus.recv(2, 1, 1).data[0], 20.0);
  EXPECT_DOUBLE_EQ(bus.recv(2, 0, 1).data[0], 10.0);
}

TEST(MessageBus, RecvBlocksUntilSend) {
  MessageBus bus(2);
  std::thread sender([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    bus.send(1, Message{0, 3, {42.0}, 0});
  });
  EXPECT_DOUBLE_EQ(bus.recv(1, 0, 3).data[0], 42.0);
  sender.join();
}

TEST(MessageBus, TimeoutThrows) {
  MessageBus bus(2);
  EXPECT_THROW(bus.recv(1, 0, 3, /*timeout_ms=*/30), std::runtime_error);
}

TEST(MessageBus, SelfSendWorks) {
  MessageBus bus(1);
  bus.send(0, Message{0, 9, {5.0}, 0});
  EXPECT_DOUBLE_EQ(bus.recv(0, 0, 9).data[0], 5.0);
}

TEST(MessageBus, RejectsBadConstruction) {
  EXPECT_THROW(MessageBus(0), std::invalid_argument);
}

// ---- rank exit events ---------------------------------------------------

TEST(MessageBus, MailQueuedBeforeExitIsDeliveredFirst) {
  MessageBus bus(2);
  bus.send(1, Message{0, 4, {1.0}, 0});
  bus.send(1, Message{0, 4, {2.0}, 0});
  bus.mark_exited(0);
  EXPECT_DOUBLE_EQ(bus.recv(1, 0, 4).data[0], 1.0);
  EXPECT_DOUBLE_EQ(bus.recv(1, 0, 4).data[0], 2.0);
  try {
    (void)bus.recv(1, 0, 4);
    FAIL() << "drained receive from an exited sender returned";
  } catch (const PeerExited& e) {
    EXPECT_EQ(e.rank, 1);
    EXPECT_EQ(e.peer, 0);
    EXPECT_EQ(e.tag, 4);
  }
  // Only the exited sender's streams end; other senders still deliver.
  bus.send(1, Message{1, 4, {3.0}, 0});
  EXPECT_DOUBLE_EQ(bus.recv(1, 1, 4).data[0], 3.0);
}

TEST(MessageBus, ExitWakesBlockedReceiverBeforeTimeout) {
  // The receiver is asleep with a 60 s real-time budget; the sender's
  // exit must end the wait at once with PeerExited -- the generic
  // timeout runtime_error would fail the type check (and take 60 s).
  MessageBus bus(2);
  std::thread exiter([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    bus.mark_exited(0);
  });
  EXPECT_THROW((void)bus.recv(1, 0, 3, /*timeout_ms=*/60000), PeerExited);
  exiter.join();
}

}  // namespace
}  // namespace hyades::cluster
