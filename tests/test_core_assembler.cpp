/// \file test_core_assembler.cpp
/// \brief System assembly and global Jacobian stacking tests (paper §III-E).
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/error.hpp"
#include "core/assembler.hpp"
#include "linalg/lu.hpp"
#include "support/test_blocks.hpp"

namespace {

using ehsim::ModelError;
using ehsim::core::SystemAssembler;
using ehsim::linalg::Matrix;
using ehsim::testing::CapacitorBlock;
using ehsim::testing::OscillatorBlock;
using ehsim::testing::SourceResistorBlock;

/// RC circuit: source-resistor + capacitor over shared (V, I) nets.
struct RcFixture {
  SystemAssembler assembler;
  ehsim::core::BlockHandle source;
  ehsim::core::BlockHandle cap;

  explicit RcFixture(double r = 10.0, double c = 0.5, double vc0 = 0.0) {
    source = assembler.add_block(
        std::make_unique<SourceResistorBlock>([](double) { return 1.0; }, r));
    cap = assembler.add_block(std::make_unique<CapacitorBlock>(c, vc0));
    const auto v = assembler.net("V");
    const auto i = assembler.net("I");
    assembler.bind(source, 0, v);
    assembler.bind(source, 1, i);
    assembler.bind(cap, 0, v);
    assembler.bind(cap, 1, i);
    assembler.elaborate();
  }
};

TEST(Assembler, DimensionsAfterElaboration) {
  RcFixture rc;
  EXPECT_EQ(rc.assembler.num_states(), 1u);
  EXPECT_EQ(rc.assembler.num_nets(), 2u);
  EXPECT_EQ(rc.assembler.num_blocks(), 2u);
  EXPECT_TRUE(rc.assembler.elaborated());
}

TEST(Assembler, StateNamesAreQualified) {
  RcFixture rc;
  const auto names = rc.assembler.state_names();
  ASSERT_EQ(names.size(), 1u);
  EXPECT_EQ(names[0], "cap.vc");
}

TEST(Assembler, NetLookup) {
  RcFixture rc;
  ASSERT_TRUE(rc.assembler.find_net("V").has_value());
  ASSERT_TRUE(rc.assembler.find_net("I").has_value());
  EXPECT_FALSE(rc.assembler.find_net("missing").has_value());
  const auto names = rc.assembler.net_names();
  EXPECT_EQ(names[0], "V");
  EXPECT_EQ(names[1], "I");
}

TEST(Assembler, NetHandleIsIdempotent) {
  SystemAssembler assembler;
  const auto a = assembler.net("X");
  const auto b = assembler.net("X");
  EXPECT_EQ(a.index, b.index);
}

TEST(Assembler, UnboundTerminalFailsElaboration) {
  SystemAssembler assembler;
  const auto cap = assembler.add_block(std::make_unique<CapacitorBlock>(1.0, 0.0));
  assembler.bind(cap, 0, assembler.net("V"));
  // terminal 1 left unbound
  EXPECT_THROW(assembler.elaborate(), ModelError);
}

TEST(Assembler, NonSquareAlgebraicSystemFails) {
  // One capacitor alone: 1 algebraic row but 2 nets -> not square.
  SystemAssembler assembler;
  const auto cap = assembler.add_block(std::make_unique<CapacitorBlock>(1.0, 0.0));
  assembler.bind(cap, 0, assembler.net("V"));
  assembler.bind(cap, 1, assembler.net("I"));
  EXPECT_THROW(assembler.elaborate(), ModelError);
}

TEST(Assembler, DoubleBindRejected) {
  SystemAssembler assembler;
  const auto cap = assembler.add_block(std::make_unique<CapacitorBlock>(1.0, 0.0));
  const auto v = assembler.net("V");
  assembler.bind(cap, 0, v);
  EXPECT_THROW(assembler.bind(cap, 0, v), ModelError);
}

TEST(Assembler, MutationAfterElaborationRejected) {
  RcFixture rc;
  EXPECT_THROW(rc.assembler.add_block(std::make_unique<CapacitorBlock>(1.0, 0.0)),
               ModelError);
  EXPECT_THROW(rc.assembler.net("new"), ModelError);
}

TEST(Assembler, UndeclaredBlocksScanEveryEntry) {
  // The test blocks keep AnalogBlock's default declaration: every entry
  // either block writes, i.e. all 9 global entries but Jyx(0, 0) (the
  // source's algebraic row has no state to couple to).
  RcFixture rc;
  EXPECT_EQ(rc.assembler.varying_jacobian_entries().size(), 8u);
}

/// A grounded unit capacitor (dvc/dt = I, V = vc) declaring \p declared.
class DeclaringCapacitor final : public ehsim::core::AnalogBlock {
 public:
  explicit DeclaringCapacitor(std::vector<ehsim::core::JacobianEntry> declared)
      : AnalogBlock("declaring", 1, 2, 1), declared_(std::move(declared)) {}
  void eval(double, std::span<const double> x, std::span<const double> y,
            std::span<double> fx, std::span<double> fy) const override {
    fx[0] = y[1];
    fy[0] = y[0] - x[0];
  }
  void jacobians(double, std::span<const double>, std::span<const double>, Matrix&,
                 Matrix& jxy, Matrix& jyx, Matrix& jyy) const override {
    jxy(0, 1) = 1.0;
    jyx(0, 0) = -1.0;
    jyy(0, 0) = 1.0;
  }
  void varying_jacobian_entries(std::vector<ehsim::core::JacobianEntry>& entries) const override {
    entries.insert(entries.end(), declared_.begin(), declared_.end());
  }

 private:
  std::vector<ehsim::core::JacobianEntry> declared_;
};

TEST(Assembler, VaryingEntriesLandWhereJacobiansScatterThem) {
  using ehsim::core::JacobianBlock;
  SystemAssembler assembler;
  const auto source = assembler.add_block(
      std::make_unique<SourceResistorBlock>([](double) { return 1.0; }, 10.0));
  const auto cap = assembler.add_block(std::make_unique<DeclaringCapacitor>(
      std::vector<ehsim::core::JacobianEntry>{{JacobianBlock::kXY, 0, 1},
                                              {JacobianBlock::kYY, 0, 0}}));
  const auto v = assembler.net("V");
  const auto i = assembler.net("I");
  assembler.bind(source, 0, v);
  assembler.bind(source, 1, i);
  assembler.bind(cap, 0, i);  // terminals bound in swapped order
  assembler.bind(cap, 1, v);
  assembler.elaborate();
  // Source (every entry): Jyy row 0, both nets. Capacitor (algebraic row
  // 1): local Jxy(0, 1) lands on V's column, local Jyy(0, 0) on I's.
  const auto& pattern = assembler.varying_jacobian_entries();
  EXPECT_EQ(pattern.size(JacobianBlock::kXY), 1u);
  EXPECT_EQ(pattern.size(JacobianBlock::kYY), 3u);
  EXPECT_EQ(pattern.indices(), (std::vector<std::uint32_t>{0, 0, 1, 3}));

  // A declaration outside the block's own 1 x 1 Jxx is refused.
  SystemAssembler bad;
  const auto bad_source = bad.add_block(
      std::make_unique<SourceResistorBlock>([](double) { return 1.0; }, 10.0));
  const auto bad_cap = bad.add_block(std::make_unique<DeclaringCapacitor>(
      std::vector<ehsim::core::JacobianEntry>{{JacobianBlock::kXX, 1, 0}}));
  for (const auto block : {bad_source, bad_cap}) {
    bad.bind(block, 0, bad.net("V"));
    bad.bind(block, 1, bad.net("I"));
  }
  EXPECT_THROW(bad.elaborate(), ModelError);
}

TEST(Assembler, InitialStateGathersFromBlocks) {
  RcFixture rc(10.0, 0.5, 2.5);
  ehsim::linalg::Vector x(1);
  rc.assembler.initial_state(x.span());
  EXPECT_DOUBLE_EQ(x[0], 2.5);
}

TEST(Assembler, EvalStacksResiduals) {
  RcFixture rc(10.0, 0.5, 0.0);
  ehsim::linalg::Vector x{0.0};
  ehsim::linalg::Vector y{0.0, 0.0};  // V = 0, I = 0
  ehsim::linalg::Vector fx(1);
  ehsim::linalg::Vector fy(2);
  rc.assembler.eval(0.0, x.span(), y.span(), fx.span(), fy.span());
  // Source row: V - Vs + R I = -1; cap row: V - vc = 0.
  EXPECT_DOUBLE_EQ(fy[0], -1.0);
  EXPECT_DOUBLE_EQ(fy[1], 0.0);
  EXPECT_DOUBLE_EQ(fx[0], 0.0);
}

TEST(Assembler, GlobalJacobiansMatchHandDerivation) {
  const double r = 10.0;
  const double c = 0.5;
  RcFixture rc(r, c);
  ehsim::linalg::Vector x{0.0};
  ehsim::linalg::Vector y{0.0, 0.0};
  Matrix jxx, jxy, jyx, jyy;
  rc.assembler.jacobians(0.0, x.span(), y.span(), jxx, jxy, jyx, jyy);

  ASSERT_EQ(jxx.rows(), 1u);
  ASSERT_EQ(jyy.rows(), 2u);
  EXPECT_DOUBLE_EQ(jxx(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(jxy(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(jxy(0, 1), 1.0 / c);
  // Row 0: source (V, I); row 1: capacitor (V - vc).
  EXPECT_DOUBLE_EQ(jyy(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(jyy(0, 1), r);
  EXPECT_DOUBLE_EQ(jyy(1, 0), 1.0);
  EXPECT_DOUBLE_EQ(jyy(1, 1), 0.0);
  EXPECT_DOUBLE_EQ(jyx(1, 0), -1.0);
}

TEST(Assembler, EliminationReproducesRcTimeConstant) {
  // A = Jxx - Jxy Jyy^-1 Jyx must equal -1/(R C) for the RC circuit.
  const double r = 10.0;
  const double c = 0.5;
  RcFixture rc(r, c);
  ehsim::linalg::Vector x{0.0};
  ehsim::linalg::Vector y{0.0, 0.0};
  Matrix jxx, jxy, jyx, jyy;
  rc.assembler.jacobians(0.0, x.span(), y.span(), jxx, jxy, jyx, jyy);
  const Matrix jyy_inv = ehsim::linalg::inverse(jyy);
  const Matrix a = jxx - jxy * (jyy_inv * jyx);
  EXPECT_NEAR(a(0, 0), -1.0 / (r * c), 1e-12);
}

TEST(Assembler, TotalEpochSumsBlockEpochs) {
  RcFixture rc;
  const auto before = rc.assembler.total_epoch();
  rc.assembler.block_as<SourceResistorBlock>(rc.source).set_resistance(20.0);
  EXPECT_EQ(rc.assembler.total_epoch(), before + 1);
}

TEST(Assembler, BlockAsTypeMismatchThrows) {
  RcFixture rc;
  EXPECT_THROW((void)rc.assembler.block_as<CapacitorBlock>(rc.source), ModelError);
}

TEST(Assembler, StateIndexMapping) {
  SystemAssembler assembler;
  const auto osc = assembler.add_block(std::make_unique<OscillatorBlock>(1.0, 0.1, 1.0));
  const auto cubic =
      assembler.add_block(std::make_unique<ehsim::testing::CubicDecayBlock>(1.0, 1.0));
  assembler.elaborate();
  EXPECT_EQ(assembler.state_offset(osc), 0u);
  EXPECT_EQ(assembler.state_offset(cubic), 2u);
  EXPECT_EQ(assembler.state_index(cubic, 0), 2u);
  EXPECT_THROW((void)assembler.state_index(cubic, 1), ModelError);
}

TEST(Assembler, EmptyElaborationRejected) {
  SystemAssembler assembler;
  EXPECT_THROW(assembler.elaborate(), ModelError);
}

TEST(Assembler, BlocksWithoutTerminalsNeedNoNets) {
  SystemAssembler assembler;
  assembler.add_block(std::make_unique<OscillatorBlock>(2.0, 0.05, 1.0));
  assembler.elaborate();
  EXPECT_EQ(assembler.num_states(), 2u);
  EXPECT_EQ(assembler.num_nets(), 0u);
}

}  // namespace
