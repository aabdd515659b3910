// Unit tests for the network model (latency, bandwidth, link serialization)
// and the mini-MPI communicator (barrier matching, exchange, allreduce,
// gang-skew behaviour).

#include <gtest/gtest.h>

#include "cluster/cluster.hpp"
#include "net/mpi.hpp"
#include "workloads/generator.hpp"

namespace apsim {
namespace {

TEST(Network, DeliveryIncludesLatencyAndTransfer) {
  Simulator sim;
  Network net(sim, 2);
  SimTime delivered = -1;
  net.send(0, 1, 125000, [&] { delivered = sim.now(); });  // ~10 ms at 100 Mbps
  sim.run();
  const auto& p = net.params();
  const SimTime expected = p.per_message_overhead + net.transfer_time(125000) +
                           p.latency + p.per_message_overhead;
  EXPECT_NEAR(static_cast<double>(delivered), static_cast<double>(expected),
              static_cast<double>(kMillisecond));
  EXPECT_GE(delivered, 10 * kMillisecond);
}

TEST(Network, SenderLinkSerializesBackToBackMessages) {
  Simulator sim;
  Network net(sim, 3);
  SimTime first = -1, second = -1;
  net.send(0, 1, 1'250'000, [&] { first = sim.now(); });   // ~100 ms
  net.send(0, 2, 1'250'000, [&] { second = sim.now(); });  // queued behind
  sim.run();
  EXPECT_GT(second, first + 50 * kMillisecond);
}

TEST(Network, DistinctSendersProceedInParallel) {
  Simulator sim;
  Network net(sim, 4);
  SimTime a = -1, b = -1;
  net.send(0, 2, 1'250'000, [&] { a = sim.now(); });
  net.send(1, 3, 1'250'000, [&] { b = sim.now(); });
  sim.run();
  EXPECT_LT(std::abs(a - b), kMillisecond);
}

TEST(Network, SelfSendIsCheap) {
  Simulator sim;
  Network net(sim, 2);
  SimTime t = -1;
  net.send(0, 0, 1 << 20, [&] { t = sim.now(); });
  sim.run();
  EXPECT_LT(t, kMillisecond);
}

TEST(Network, StatsCountTraffic) {
  Simulator sim;
  Network net(sim, 2);
  net.send(0, 1, 100, [] {});
  net.charge(1, 0, 200);
  sim.run();
  EXPECT_EQ(net.stats().messages, 2u);
  EXPECT_EQ(net.stats().bytes, 300u);
}

struct MpiFixture : ::testing::Test {
  static constexpr int kRanks = 4;

  MpiFixture() {
    NodeParams node;
    node.vmm.total_frames = 4096;
    node.disk.num_blocks = 1 << 16;
    cluster = std::make_unique<Cluster>(kRanks, node);
    comm = std::make_unique<MpiComm>(cluster->sim(), cluster->network(),
                                     kRanks);
  }

  /// Create one process per node running `iters` iterations of
  /// barrier-only cycles.
  void make_ranks(std::int64_t iters, CommOp::Type type = CommOp::Type::kBarrier,
                  std::int64_t bytes = 0) {
    for (int r = 0; r < kRanks; ++r) {
      auto& node = cluster->node(r);
      const Pid pid = node.vmm().create_process(4);
      auto program = std::make_unique<IterativeProgram>(
          std::vector<Op>{},
          std::vector<Op>{Op::comm_op(CommOp{type, bytes})}, iters);
      procs.push_back(std::make_unique<Process>(
          std::to_string(r).insert(0, 1, 'r'), pid, std::move(program)));
      node.cpu().attach(*procs.back());
      comm->bind(r, *procs.back(), r);
      comm->install_exclusive(node.cpu());
    }
  }

  void start_all() {
    for (int r = 0; r < kRanks; ++r) {
      cluster->node(r).cpu().cont_process(*procs[static_cast<std::size_t>(r)]);
    }
  }

  [[nodiscard]] bool all_finished() const {
    for (const auto& p : procs) {
      if (!p->finished()) return false;
    }
    return true;
  }

  std::unique_ptr<Cluster> cluster;
  std::unique_ptr<MpiComm> comm;
  std::vector<std::unique_ptr<Process>> procs;
};

TEST_F(MpiFixture, BarrierCompletesForAllRanks) {
  make_ranks(5);
  start_all();
  cluster->sim().run();
  EXPECT_TRUE(all_finished());
  EXPECT_EQ(comm->stats().barriers, 5u);
}

TEST_F(MpiFixture, BarrierWaitsForLaggard) {
  make_ranks(1);
  // Start all but rank 3; release the laggard 10 virtual seconds in.
  for (int r = 0; r < 3; ++r) {
    cluster->node(r).cpu().cont_process(*procs[static_cast<std::size_t>(r)]);
  }
  (void)cluster->sim().at(10 * kSecond, [&] {
    EXPECT_FALSE(procs[0]->finished());
    EXPECT_EQ(procs[0]->state(), ProcState::kBlockedComm);
    cluster->node(3).cpu().cont_process(*procs[3]);
  });
  cluster->sim().run();
  EXPECT_TRUE(all_finished());
  // Ranks 0-2 spent ~10 s waiting in the barrier (gang skew).
  EXPECT_GT(procs[0]->stats().comm_wait, 9 * kSecond);
}

TEST_F(MpiFixture, ExchangeMovesBytes) {
  make_ranks(3, CommOp::Type::kExchange, 64 * 1024);
  start_all();
  cluster->sim().run();
  EXPECT_TRUE(all_finished());
  EXPECT_EQ(comm->stats().exchanges, 3u);
  // 4 ranks x 2 neighbours x 3 iterations messages.
  EXPECT_EQ(cluster->network().stats().messages, 24u);
  EXPECT_EQ(cluster->network().stats().bytes, 24u * 64 * 1024);
}

TEST_F(MpiFixture, AllreduceCostsLogRounds) {
  make_ranks(1, CommOp::Type::kAllreduce, 1024);
  start_all();
  cluster->sim().run();
  EXPECT_TRUE(all_finished());
  EXPECT_EQ(comm->stats().allreduces, 1u);
  // Completion takes at least 2 rounds of latency (log2(4) = 2).
  EXPECT_GE(cluster->sim().now(), 2 * cluster->network().params().latency);
}

TEST(MpiSingleRank, CollectivesDegenerate) {
  NodeParams node;
  node.vmm.total_frames = 1024;
  node.disk.num_blocks = 1 << 14;
  Cluster cluster(1, node);
  MpiComm comm(cluster.sim(), cluster.network(), 1);
  const Pid pid = cluster.node(0).vmm().create_process(4);
  auto program = std::make_unique<IterativeProgram>(
      std::vector<Op>{},
      std::vector<Op>{Op::comm_op(CommOp{CommOp::Type::kExchange, 4096}),
                      Op::comm_op(CommOp{CommOp::Type::kBarrier, 0})},
      2);
  Process proc("solo", pid, std::move(program));
  cluster.node(0).cpu().attach(proc);
  comm.bind(0, proc, 0);
  comm.install_exclusive(cluster.node(0).cpu());
  cluster.node(0).cpu().cont_process(proc);
  cluster.sim().run();
  EXPECT_TRUE(proc.finished());
}

}  // namespace
}  // namespace apsim
