#include "corridor/sweep.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "util/durable_io.hpp"
#include "util/vmath.hpp"

namespace railcorr::corridor {
namespace {

SweepPlan two_axis_plan() {
  return SweepPlan::from_spec(
      "base = paper\n"
      "set isd_search.sample_step_m = 50\n"
      "axis radio.lp_eirp_dbm = 37, 40, 43\n"
      "axis timetable.trains_per_hour = 8, 16\n");
}

TEST(SweepPlan, ParseAndGridShape) {
  const auto plan = two_axis_plan();
  EXPECT_EQ(plan.base, "paper");
  ASSERT_EQ(plan.fixed.size(), 1u);
  EXPECT_EQ(plan.fixed[0].key, "isd_search.sample_step_m");
  ASSERT_EQ(plan.axes.size(), 2u);
  EXPECT_EQ(plan.axes[0].values.size(), 3u);
  EXPECT_EQ(plan.axes[1].values.size(), 2u);
  EXPECT_EQ(plan.size(), 6u);
}

TEST(SweepPlan, RowMajorDecomposition) {
  const auto plan = two_axis_plan();
  // Last axis fastest: index 0 -> (37, 8), 1 -> (37, 16), 2 -> (40, 8).
  const auto cell0 = plan.overrides_at(0);
  ASSERT_EQ(cell0.size(), 3u);  // fixed + two axes
  EXPECT_EQ(cell0[1].value, "37");
  EXPECT_EQ(cell0[2].value, "8");
  const auto cell1 = plan.overrides_at(1);
  EXPECT_EQ(cell1[1].value, "37");
  EXPECT_EQ(cell1[2].value, "16");
  const auto cell2 = plan.overrides_at(2);
  EXPECT_EQ(cell2[1].value, "40");
  EXPECT_EQ(cell2[2].value, "8");
  const auto cell5 = plan.overrides_at(5);
  EXPECT_EQ(cell5[1].value, "43");
  EXPECT_EQ(cell5[2].value, "16");
}

TEST(SweepPlan, CanonicalSpecRoundTripsAndFingerprints) {
  const auto plan = two_axis_plan();
  const auto reparsed = SweepPlan::from_spec(plan.canonical_spec());
  EXPECT_EQ(reparsed.canonical_spec(), plan.canonical_spec());
  EXPECT_EQ(reparsed.fingerprint(), plan.fingerprint());

  auto different = plan;
  different.axes[0].values.push_back("46");
  EXPECT_NE(different.fingerprint(), plan.fingerprint());
}

TEST(SweepPlan, ParseErrors) {
  EXPECT_THROW(SweepPlan::from_spec("base = a\nbase = b\n"),
               util::ConfigError);
  EXPECT_THROW(SweepPlan::from_spec("axis = 1, 2\n"), util::ConfigError);
  EXPECT_THROW(SweepPlan::from_spec("axis k = 1,,2\n"), util::ConfigError);
  EXPECT_THROW(SweepPlan::from_spec("axis k = 1\naxis k = 2\n"),
               util::ConfigError);
  EXPECT_THROW(SweepPlan::from_spec("frobnicate k = 1\n"),
               util::ConfigError);
}

TEST(SweepPlan, AxisValuesAreTrimmedAndNeverEmpty) {
  const auto plan = SweepPlan::from_spec("axis k =  1 ,\t2\t, 3\n");
  ASSERT_EQ(plan.axes.size(), 1u);
  EXPECT_EQ(plan.axes[0].values, (std::vector<std::string>{"1", "2", "3"}));
  for (const char* text : {"axis k = 60,\n", "axis k = ,60\n",
                           "axis k = 1, ,2\n"}) {
    try {
      (void)SweepPlan::from_spec(text);
      ADD_FAILURE() << "accepted: " << text;
    } catch (const util::ConfigError& error) {
      EXPECT_NE(std::string(error.what()).find("(line 1): empty value"),
                std::string::npos)
          << error.what();
    }
  }
}

TEST(SweepPlan, RejectsAGridLargerThanSizeMax) {
  // 64 two-value axes: 2^64 cells, which size() would wrap to 0.
  std::string text;
  for (int axis = 0; axis < 64; ++axis) {
    text += "axis k" + std::to_string(axis) + " = 1, 2\n";
  }
  try {
    (void)SweepPlan::from_spec(text);
    FAIL() << "a 2^64-cell plan parsed";
  } catch (const util::ConfigError& error) {
    EXPECT_NE(std::string(error.what()).find("sweep plan line 64: axis 'k63'"),
              std::string::npos)
        << error.what();
  }
  text.resize(text.rfind("axis k63"));
  EXPECT_EQ(SweepPlan::from_spec(text).size(), std::size_t{1} << 63);
}

TEST(ShardSpec, ParseAndPartition) {
  const auto shard = ShardSpec::parse("1/3");
  EXPECT_EQ(shard.index, 1u);
  EXPECT_EQ(shard.count, 3u);
  EXPECT_THROW(ShardSpec::parse("3/3"), util::ConfigError);
  EXPECT_THROW(ShardSpec::parse("0/0"), util::ConfigError);
  EXPECT_THROW(ShardSpec::parse("1-3"), util::ConfigError);
  EXPECT_THROW(ShardSpec::parse("a/3"), util::ConfigError);
  // 2^64 + 1 is out of range, not shard 1 of 2.
  EXPECT_THROW(ShardSpec::parse("18446744073709551617/2"), util::ConfigError);

  // Shards partition the grid: disjoint and covering.
  std::set<std::size_t> seen;
  for (std::size_t k = 0; k < 3; ++k) {
    for (const std::size_t i : ShardSpec{k, 3}.indices(10)) {
      EXPECT_TRUE(seen.insert(i).second) << "duplicate index " << i;
    }
  }
  EXPECT_EQ(seen.size(), 10u);
  EXPECT_EQ(*seen.begin(), 0u);
  EXPECT_EQ(*seen.rbegin(), 9u);
}

TEST(ShardSpec, CellCountIsTheIndexCountWithoutListingThem) {
  for (std::size_t grid = 0; grid < 12; ++grid) {
    for (std::size_t count = 1; count < 6; ++count) {
      for (std::size_t index = 0; index < count; ++index) {
        const ShardSpec shard{index, count};
        EXPECT_EQ(shard.cell_count(grid), shard.indices(grid).size())
            << index << "/" << count << " of " << grid;
      }
    }
  }
  const std::size_t huge = std::size_t{1} << 63;
  EXPECT_EQ((ShardSpec{0, 1}.cell_count(huge)), huge);
  EXPECT_EQ((ShardSpec{2, 3}.cell_count(huge)), (huge - 3) / 3 + 1);
  EXPECT_EQ((ShardSpec{0, 2}.cell_count(SIZE_MAX)), SIZE_MAX / 2 + 1);
}

// ---- merge -------------------------------------------------------------

std::string tiny_banner() {
  SweepPlan plan;
  plan.axes.push_back(SweepAxis{"k", {"1", "2", "3", "4"}});
  return shard_banner(plan);
}

std::string make_shard(const std::vector<std::pair<int, std::string>>& rows) {
  std::string doc = tiny_banner() + "\nindex,k,metric\n";
  for (const auto& [index, payload] : rows) {
    doc += std::to_string(index) + "," + payload + "\n";
  }
  return doc;
}

TEST(MergeShards, InterleavedShardsMergeToCanonicalOrder) {
  const auto merged = merge_shards({
      make_shard({{0, "1,10"}, {2, "3,30"}}),
      make_shard({{1, "2,20"}, {3, "4,40"}}),
  });
  ASSERT_TRUE(merged.ok) << (merged.errors.empty() ? "" : merged.errors[0]);
  const auto single = merge_shards({
      make_shard({{0, "1,10"}, {1, "2,20"}, {2, "3,30"}, {3, "4,40"}}),
  });
  ASSERT_TRUE(single.ok);
  EXPECT_EQ(merged.merged, single.merged);
}

TEST(MergeShards, ByteIdenticalOverlapIsAllowed) {
  const auto merged = merge_shards({
      make_shard({{0, "1,10"}, {1, "2,20"}}),
      make_shard({{1, "2,20"}, {2, "3,30"}, {3, "4,40"}}),
  });
  EXPECT_TRUE(merged.ok);
}

TEST(MergeShards, DivergentOverlapViolatesContract) {
  const auto merged = merge_shards({
      make_shard({{0, "1,10"}, {1, "2,20"}, {2, "3,30"}, {3, "4,40"}}),
      make_shard({{1, "2,DIFFERENT"}}),
  });
  EXPECT_FALSE(merged.ok);
  ASSERT_FALSE(merged.errors.empty());
  EXPECT_NE(merged.errors[0].find("determinism violation"),
            std::string::npos);
}

TEST(MergeShards, MissingCellsAreReported) {
  const auto merged = merge_shards({make_shard({{0, "1,10"}, {3, "4,40"}})});
  EXPECT_FALSE(merged.ok);
  // Cells 1 and 2, plus the coverage-gap summary naming the searched
  // shard set.
  ASSERT_EQ(merged.errors.size(), 3u);
  EXPECT_NE(merged.errors[0].find("grid cell 1"), std::string::npos);
  EXPECT_NE(merged.errors[1].find("grid cell 2"), std::string::npos);
  EXPECT_NE(merged.errors[2].find("coverage gap: 2 cell(s)"),
            std::string::npos);
}

TEST(MergeShards, DiagnosticsNameBothShardFilesOnDivergence) {
  const auto merged = merge_shards(
      {
          make_shard({{0, "1,10"}, {1, "2,20"}, {2, "3,30"}, {3, "4,40"}}),
          make_shard({{1, "2,DIFFERENT"}}),
      },
      {"runs/shard_a.csv", "runs/shard_b.csv"});
  EXPECT_FALSE(merged.ok);
  EXPECT_TRUE(merged.contract_violation);
  ASSERT_FALSE(merged.errors.empty());
  // The violation must localize the failure: the offending cell index
  // and the paths of BOTH disagreeing shard files.
  EXPECT_NE(merged.errors[0].find("grid cell 1"), std::string::npos);
  EXPECT_NE(merged.errors[0].find("runs/shard_a.csv"), std::string::npos);
  EXPECT_NE(merged.errors[0].find("runs/shard_b.csv"), std::string::npos);
}

TEST(MergeShards, DiagnosticsNameSearchedFilesOnCoverageGap) {
  const auto merged = merge_shards({make_shard({{0, "1,10"}, {3, "4,40"}})},
                                   {"out/shard_0.csv"});
  EXPECT_FALSE(merged.ok);
  ASSERT_EQ(merged.errors.size(), 3u);
  EXPECT_NE(merged.errors[2].find("out/shard_0.csv"), std::string::npos);
}

TEST(BannerHelpers, RoundTripFingerprintAndGrid) {
  const auto plan = SweepPlan::from_spec("axis k = 1, 2, 3\n");
  const std::string banner = shard_banner(plan);
  EXPECT_NE(banner.find(" fingerprint=" + util::hex16(plan.fingerprint()) +
                        " "),
            std::string::npos);
  ASSERT_TRUE(banner_grid(banner).has_value());
  EXPECT_EQ(*banner_grid(banner), 3u);
  EXPECT_FALSE(banner_grid("# no tokens here").has_value());
  EXPECT_FALSE(banner_grid("# railcorr-sweep-v1 grid=18446744073709551617")
                   .has_value());
}

TEST(BannerHelpers, OnlyFastModeIsTagged) {
  const auto plan = SweepPlan::from_spec("axis k = 1, 2, 3\n");
  const std::string exact = shard_banner(plan);
  EXPECT_EQ(exact.find(" accuracy="), std::string::npos);
  vmath::force_accuracy_mode(vmath::AccuracyMode::kFastUlp);
  const std::string fast = shard_banner(plan);
  vmath::reset_accuracy_mode();
  // "fast-ulp2", not the retired "fast-ulp": fast rows from builds with
  // a different link kernel must never merge, resume or hit the cache.
  EXPECT_EQ(fast, exact + " accuracy=fast-ulp2");
}

TEST(MergeShards, FingerprintMismatchIsRejected) {
  SweepPlan other;
  other.axes.push_back(SweepAxis{"k", {"9", "8", "7", "6"}});
  std::string foreign = shard_banner(other) + "\nindex,k,metric\n2,3,30\n";
  const auto merged = merge_shards({
      make_shard({{0, "1,10"}, {1, "2,20"}, {3, "4,40"}}),
      foreign,
  });
  EXPECT_FALSE(merged.ok);
}

TEST(ParseShard, ViewsBannerHeaderAndIndexedRows) {
  const std::string doc = util::with_integrity_trailer(
      tiny_banner() + "\r\nindex,k,metric\r\n\n3,4,40\r\n1,2,20\n");
  std::string error;
  const auto shard = parse_shard(doc, &error);
  ASSERT_TRUE(shard.has_value()) << error;
  EXPECT_EQ(shard->banner, tiny_banner());
  EXPECT_EQ(shard->header, "index,k,metric");
  ASSERT_EQ(shard->rows.size(), 2u);  // Document order, blank line skipped.
  EXPECT_EQ(shard->rows[0].first, 3u);
  EXPECT_EQ(shard->rows[0].second, "3,4,40");
  EXPECT_EQ(shard->rows[1].first, 1u);
  EXPECT_EQ(shard->rows[1].second, "1,2,20");
  // Views into the document, not copies.
  EXPECT_GE(shard->rows[1].second.data(), doc.data());
  EXPECT_LT(shard->rows[1].second.data(), doc.data() + doc.size());
}

TEST(ParseShard, NamesEachDefect) {
  const auto why = [](const std::string& doc) {
    std::string error;
    EXPECT_FALSE(parse_shard(doc, &error).has_value()) << doc;
    return error;
  };
  std::string trailered = util::with_integrity_trailer(make_shard({}));
  char& digit = trailered[trailered.size() - 2];
  digit = digit == '0' ? '1' : '0';
  EXPECT_NE(why(trailered).find("integrity trailer mismatch"),
            std::string::npos);
  EXPECT_NE(why("index,k\n0,1\n").find("banner"), std::string::npos);
  EXPECT_NE(why(tiny_banner() + "\n").find("truncated"), std::string::npos);
  EXPECT_NE(why(tiny_banner() + "\nindex,k\n0,1\nx,2\n").find("line 4"),
            std::string::npos);
}

TEST(MergeShards, MalformedDocumentsAreRejected) {
  EXPECT_FALSE(merge_shards({}).ok);
  EXPECT_FALSE(merge_shards({"not a shard at all\n"}).ok);
  EXPECT_FALSE(merge_shards({tiny_banner() + "\nheader\nnot-a-row\n"}).ok);
  // A row index of 2^64 + 1 is malformed, not a second copy of cell 1.
  const auto overflow = merge_shards({make_shard(
      {{0, "1,10"}, {1, "2,20"}, {2, "3,30"}, {3, "4,40"}}) +
      "18446744073709551617,2,20\n"});
  EXPECT_FALSE(overflow.ok);
  EXPECT_FALSE(overflow.contract_violation);
}

}  // namespace
}  // namespace railcorr::corridor
