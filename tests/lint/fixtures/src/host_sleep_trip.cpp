// Tripwire: a host sleep in program code (the fixture sits under a
// src/ directory, the rule's scope).  Polling a mailbox and napping
// between polls waits on real time; the lint must flag it.
#include <chrono>
#include <thread>

bool poll_mailbox();

void wait_for_peer() {
  while (!poll_mailbox()) std::this_thread::sleep_for(std::chrono::microseconds(50));
}
