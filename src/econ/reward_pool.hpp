// Foundation Reward Pool (Fig 2) with its 1.75-billion-Algo lifetime
// ceiling. Exact integer accounting in µAlgos.
#pragma once

#include "ledger/types.hpp"

namespace roleshare::econ {

class FoundationPool {
 public:
  /// Lifetime emission ceiling (default: the paper's 1.75B Algos).
  explicit FoundationPool(
      ledger::MicroAlgos ceiling = ledger::algos(1'750'000'000));

  ledger::MicroAlgos ceiling() const { return ceiling_; }
  ledger::MicroAlgos balance() const { return balance_; }
  /// Total ever injected (bounded by the ceiling).
  ledger::MicroAlgos emitted() const { return emitted_; }
  /// Total ever disbursed to users.
  ledger::MicroAlgos disbursed() const { return disbursed_; }

  /// Adds R_i to the pool, clipped so cumulative emission never exceeds the
  /// ceiling. Returns the amount actually injected.
  ledger::MicroAlgos inject(ledger::MicroAlgos amount);

  /// Takes B_i out for distribution, clipped to the current balance.
  /// Returns the amount actually withdrawn.
  ledger::MicroAlgos withdraw(ledger::MicroAlgos amount);

  bool exhausted() const { return emitted_ >= ceiling_ && balance_ == 0; }

 private:
  ledger::MicroAlgos ceiling_;
  ledger::MicroAlgos balance_ = 0;
  ledger::MicroAlgos emitted_ = 0;
  ledger::MicroAlgos disbursed_ = 0;
};

}  // namespace roleshare::econ
