#include "simkit/periodic.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace moon::sim {
namespace {

TEST(PeriodicTask, FiresAtEveryInterval) {
  Simulation sim;
  std::vector<Time> fires;
  PeriodicTask task(sim, 10 * kSecond, [&] { fires.push_back(sim.now()); });
  task.start();
  sim.run_until(35 * kSecond);
  EXPECT_EQ(fires, (std::vector<Time>{10 * kSecond, 20 * kSecond, 30 * kSecond}));
}

TEST(PeriodicTask, StopHaltsFiring) {
  Simulation sim;
  int fires = 0;
  PeriodicTask task(sim, kSecond, [&] { ++fires; });
  task.start();
  sim.run_until(5 * kSecond);
  task.stop();
  sim.run_until(100 * kSecond);
  EXPECT_EQ(fires, 5);
  EXPECT_FALSE(task.active());
}

TEST(PeriodicTask, RestartAfterStop) {
  Simulation sim;
  int fires = 0;
  PeriodicTask task(sim, kSecond, [&] { ++fires; });
  task.start();
  sim.run_until(2 * kSecond);
  task.stop();
  sim.run_until(10 * kSecond);
  task.start();
  sim.run_until(13 * kSecond);
  EXPECT_EQ(fires, 5);  // 2 before stop + 3 after restart (11,12,13)
}

TEST(PeriodicTask, CallbackMayStopItself) {
  Simulation sim;
  int fires = 0;
  PeriodicTask task(sim, kSecond, [&] {
    if (++fires == 3) task.stop();
  });
  task.start();
  sim.run_until(60 * kSecond);
  EXPECT_EQ(fires, 3);
}

TEST(PeriodicTask, DoubleStartIsNoOp) {
  Simulation sim;
  int fires = 0;
  PeriodicTask task(sim, kSecond, [&] { ++fires; });
  task.start();
  task.start();
  sim.run_until(kSecond);
  EXPECT_EQ(fires, 1);
}

TEST(PeriodicTask, NonPositiveIntervalThrows) {
  Simulation sim;
  EXPECT_THROW(PeriodicTask(sim, 0, [] {}), std::logic_error);
  EXPECT_THROW(PeriodicTask(sim, -5, [] {}), std::logic_error);
}

TEST(PeriodicTask, DestructorCancelsPendingFire) {
  Simulation sim;
  int fires = 0;
  {
    PeriodicTask task(sim, kSecond, [&] { ++fires; });
    task.start();
  }
  sim.run_until(10 * kSecond);
  EXPECT_EQ(fires, 0);
}

}  // namespace
}  // namespace moon::sim
