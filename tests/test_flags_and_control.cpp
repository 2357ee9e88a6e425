// Command-line flag parsing and control-message codec tests.
#include <gtest/gtest.h>

#include "common/flags.h"
#include "imapreduce/control.h"

namespace imr {
namespace {

Flags parse(std::initializer_list<const char*> args) {
  std::vector<char*> argv = {const_cast<char*>("prog")};
  for (const char* a : args) argv.push_back(const_cast<char*>(a));
  return Flags(static_cast<int>(argv.size()), argv.data());
}

TEST(Flags, EqualsAndSpaceSyntax) {
  Flags f = parse({"--workers=8", "--engine", "imr", "--sync"});
  EXPECT_EQ(f.get_int("workers", 0), 8);
  EXPECT_EQ(f.get("engine", ""), "imr");
  EXPECT_TRUE(f.get_bool("sync"));
  EXPECT_FALSE(f.get_bool("absent"));
}

TEST(Flags, PositionalArguments) {
  Flags f = parse({"sssp", "--workers", "4", "extra"});
  ASSERT_EQ(f.positional().size(), 2u);
  EXPECT_EQ(f.positional()[0], "sssp");
  EXPECT_EQ(f.positional()[1], "extra");
}

TEST(Flags, Defaults) {
  Flags f = parse({});
  EXPECT_EQ(f.get_int("n", 42), 42);
  EXPECT_EQ(f.get_double("x", 1.5), 1.5);
  EXPECT_EQ(f.get("s", "d"), "d");
}

TEST(Flags, SwitchFollowedByFlag) {
  Flags f = parse({"--verbose", "--workers", "3"});
  EXPECT_TRUE(f.get_bool("verbose"));
  EXPECT_EQ(f.get_int("workers", 0), 3);
}

TEST(Flags, ExplicitFalse) {
  Flags f = parse({"--balance=false"});
  EXPECT_FALSE(f.get_bool("balance"));
}

TEST(Flags, BadNumberThrows) {
  Flags f = parse({"--workers", "soon"});
  EXPECT_THROW(f.get_int("workers", 0), ConfigError);
  EXPECT_THROW(f.get_double("workers", 0), ConfigError);
}

TEST(Flags, IntegerMustBeWholeAndFitTheCallersType) {
  Flags f = parse({"--iterations", "3abc", "--big", "4294967299", "--points",
                   "-1", "--n", "7"});
  EXPECT_THROW(f.get_int("iterations", 10), ConfigError);
  EXPECT_THROW(f.get_int("big", 10), ConfigError);
  EXPECT_THROW(f.get_int<uint32_t>("points", 10000), ConfigError);
  EXPECT_EQ(f.get_int<uint32_t>("n", 1000), 7u);
}

TEST(CtlCodec, RoundTripsAllFields) {
  CtlMsg m;
  m.type = CtlType::kReport;
  m.task = 17;
  m.iteration = 123;
  m.generation = 4;
  m.worker = 9;
  m.distance = 2.5e-3;
  m.duration_ns = 987654321;
  CtlMsg back = CtlMsg::decode(m.encode());
  EXPECT_EQ(back.type, CtlType::kReport);
  EXPECT_EQ(back.task, 17);
  EXPECT_EQ(back.iteration, 123);
  EXPECT_EQ(back.generation, 4);
  EXPECT_EQ(back.worker, 9);
  EXPECT_EQ(back.distance, 2.5e-3);
  EXPECT_EQ(back.duration_ns, 987654321);
}

TEST(CtlCodec, NegativeSentinelsSurvive) {
  CtlMsg m;
  m.type = CtlType::kTerminate;
  m.task = -1;
  m.worker = -1;
  CtlMsg back = CtlMsg::decode(m.encode());
  EXPECT_EQ(back.task, -1);
  EXPECT_EQ(back.worker, -1);
}

TEST(CtlCodec, EmptyBufferThrows) {
  EXPECT_THROW(CtlMsg::decode(Bytes()), FormatError);
}

TEST(CtlCodec, AllTypesRoundTrip) {
  for (CtlType t :
       {CtlType::kContinue, CtlType::kTerminate, CtlType::kRollback,
        CtlType::kKill, CtlType::kReport, CtlType::kFailure, CtlType::kDone,
        CtlType::kAuxSignal, CtlType::kConvergedCkpt, CtlType::kCkptAck,
        CtlType::kDelta, CtlType::kDeltaAck, CtlType::kResume}) {
    CtlMsg m;
    m.type = t;
    EXPECT_EQ(CtlMsg::decode(m.encode()).type, t);
  }
}

}  // namespace
}  // namespace imr
