#include "econ/reward_pool.hpp"

#include <algorithm>

#include "util/require.hpp"

namespace roleshare::econ {

FoundationPool::FoundationPool(ledger::MicroAlgos ceiling)
    : ceiling_(ceiling) {
  RS_REQUIRE(ceiling > 0, "pool ceiling must be positive");
}

ledger::MicroAlgos FoundationPool::inject(ledger::MicroAlgos amount) {
  RS_REQUIRE(amount >= 0, "injection must be non-negative");
  const ledger::MicroAlgos room = ceiling_ - emitted_;
  const ledger::MicroAlgos actual = std::min(amount, room);
  emitted_ += actual;
  balance_ += actual;
  return actual;
}

ledger::MicroAlgos FoundationPool::withdraw(ledger::MicroAlgos amount) {
  RS_REQUIRE(amount >= 0, "withdrawal must be non-negative");
  const ledger::MicroAlgos actual = std::min(amount, balance_);
  balance_ -= actual;
  disbursed_ += actual;
  return actual;
}

}  // namespace roleshare::econ
