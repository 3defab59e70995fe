#include "econ/reward_pool.hpp"

#include <gtest/gtest.h>

namespace roleshare::econ {
namespace {

using ledger::algos;

TEST(FoundationPool, DefaultCeilingIsOnePointSevenFiveBillion) {
  const FoundationPool pool;
  EXPECT_EQ(pool.ceiling(), algos(1'750'000'000));
  EXPECT_EQ(pool.balance(), 0);
  EXPECT_EQ(pool.emitted(), 0);
}

TEST(FoundationPool, InjectAndWithdraw) {
  FoundationPool pool(algos(100));
  EXPECT_EQ(pool.inject(algos(30)), algos(30));
  EXPECT_EQ(pool.balance(), algos(30));
  EXPECT_EQ(pool.withdraw(algos(12)), algos(12));
  EXPECT_EQ(pool.balance(), algos(18));
  EXPECT_EQ(pool.disbursed(), algos(12));
}

TEST(FoundationPool, InjectionClippedAtCeiling) {
  FoundationPool pool(algos(50));
  EXPECT_EQ(pool.inject(algos(40)), algos(40));
  EXPECT_EQ(pool.inject(algos(40)), algos(10));  // only 10 left to ceiling
  EXPECT_EQ(pool.emitted(), algos(50));
  EXPECT_EQ(pool.inject(algos(1)), 0);
}

TEST(FoundationPool, WithdrawClippedAtBalance) {
  FoundationPool pool(algos(50));
  pool.inject(algos(5));
  EXPECT_EQ(pool.withdraw(algos(8)), algos(5));
  EXPECT_EQ(pool.balance(), 0);
}

TEST(FoundationPool, ExhaustionSemantics) {
  FoundationPool pool(algos(10));
  EXPECT_FALSE(pool.exhausted());
  pool.inject(algos(10));
  EXPECT_FALSE(pool.exhausted());  // ceiling met but balance remains
  pool.withdraw(algos(10));
  EXPECT_TRUE(pool.exhausted());
}

TEST(FoundationPool, ConservationInvariant) {
  // emitted == balance + disbursed at all times.
  FoundationPool pool(algos(1000));
  for (int i = 0; i < 20; ++i) {
    pool.inject(algos(7));
    pool.withdraw(algos(3));
    EXPECT_EQ(pool.emitted(), pool.balance() + pool.disbursed());
  }
}

TEST(FoundationPool, RejectsNegativeAmounts) {
  FoundationPool pool(algos(10));
  EXPECT_THROW(pool.inject(-1), std::invalid_argument);
  EXPECT_THROW(pool.withdraw(-1), std::invalid_argument);
  EXPECT_THROW(FoundationPool(0), std::invalid_argument);
}

}  // namespace
}  // namespace roleshare::econ
