// Near-miss: outside src/ a sleep stages a thread interleaving in a
// test (the sender posts after the receiver is already blocked).  The
// host-sleep check is scoped to src/, so this stays silent.
#include <chrono>
#include <thread>

void post_message();

void delayed_sender() {
  std::thread sender([] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    post_message();
  });
  sender.join();
}
