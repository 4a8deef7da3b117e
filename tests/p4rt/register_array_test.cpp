#include "p4rt/register_array.hpp"

#include <gtest/gtest.h>

#include "net/flow_index.hpp"

namespace p4u::p4rt {
namespace {

TEST(FlatRegisterArrayTest, UnwrittenCellReadsDefault) {
  net::FlowIndex idx;
  FlatRegisterArray<int> r(-1);
  EXPECT_EQ(r.read(idx, 5), -1);  // never interned
  idx.intern(7);
  EXPECT_EQ(r.read(idx, 7), -1);  // interned, never written
  r.write(idx, 8, 3);
  EXPECT_EQ(r.read(idx, 8), 3);
  EXPECT_EQ(r.read(idx, 7), -1);  // a neighbour's write leaves it alone
  const net::FlowHandle h = idx.find(7);
  EXPECT_EQ(r.read_at(h, idx.generation(h)), -1);
  EXPECT_EQ(r.read_at(net::kNoFlowHandle, 0), -1);
}

TEST(FlatRegisterArrayTest, RecycledHandleReadsDefaultAfterRelease) {
  net::FlowIndex idx;
  FlatRegisterArray<double> r(0.5);
  r.write(idx, 1, 42.0);
  const net::FlowHandle h = idx.find(1);
  ASSERT_NE(h, net::kNoFlowHandle);
  idx.release(1);
  EXPECT_DOUBLE_EQ(r.read(idx, 1), 0.5);  // released flow reads default
  // The next flow reuses the slot under a new generation: the old row is
  // stale without any eager clearing.
  ASSERT_EQ(idx.intern(2), h);
  EXPECT_DOUBLE_EQ(r.read(idx, 2), 0.5);
  EXPECT_DOUBLE_EQ(r.read_at(h, idx.generation(h)), 0.5);
  r.write(idx, 2, 7.0);
  EXPECT_DOUBLE_EQ(r.read(idx, 2), 7.0);
}

TEST(FlatRegisterArrayTest, ReadAndWriteCountersCountEveryAccess) {
  net::FlowIndex idx;
  FlatRegisterArray<std::int64_t> r;
  EXPECT_EQ(r.reads(), 0u);
  EXPECT_EQ(r.writes(), 0u);
  r.write(idx, 1, 10);
  r.write(idx, 1, 11);  // overwrites count too
  const net::FlowHandle h = idx.find(1);
  r.write_at(h, idx.generation(h), 12);
  EXPECT_EQ(r.writes(), 3u);
  EXPECT_EQ(r.read(idx, 1), 12);
  EXPECT_EQ(r.read(idx, 99), 0);  // a read of an unknown flow still counts
  EXPECT_EQ(r.read_at(h, idx.generation(h)), 12);
  EXPECT_EQ(r.reads(), 3u);
  EXPECT_EQ(r.writes(), 3u);
}

}  // namespace
}  // namespace p4u::p4rt
