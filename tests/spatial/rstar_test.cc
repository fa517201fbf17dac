#include "spatial/rstar_tree.h"

#include <algorithm>
#include <cmath>
#include <set>

#include <gtest/gtest.h>

#include "common/random.h"

namespace walrus {
namespace {

Rect RandomPointRect(Rng* rng, int dim) {
  std::vector<float> p(dim);
  for (float& v : p) v = rng->NextFloat();
  return Rect::Point(p);
}

Rect RandomBoxRect(Rng* rng, int dim, float max_side) {
  std::vector<float> lo(dim), hi(dim);
  for (int i = 0; i < dim; ++i) {
    lo[i] = rng->NextFloat();
    hi[i] = lo[i] + max_side * rng->NextFloat();
  }
  return Rect::Bounds(lo, hi);
}

TEST(RStarTree, EmptyTreeQueries) {
  RStarTree tree(2);
  EXPECT_EQ(tree.size(), 0);
  EXPECT_TRUE(tree.RangeSearch(Rect::Bounds({0, 0}, {1, 1})).empty());
  EXPECT_TRUE(tree.Validate().ok());
}

TEST(RStarTree, SingleInsertAndHit) {
  RStarTree tree(2);
  tree.Insert(Rect::Point({0.5f, 0.5f}), 42);
  EXPECT_EQ(tree.size(), 1);
  std::vector<uint64_t> hits = tree.RangeSearch(Rect::Bounds({0, 0}, {1, 1}));
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0], 42u);
  EXPECT_TRUE(tree.RangeSearch(Rect::Bounds({0.6f, 0.6f}, {1, 1})).empty());
}

class RStarRandomized : public ::testing::TestWithParam<std::tuple<int, int>> {
};

TEST_P(RStarRandomized, RangeSearchMatchesBruteForce) {
  auto [dim, n] = GetParam();
  Rng rng(dim * 1000 + n);
  RStarTree tree(dim);
  std::vector<Rect> rects;
  for (int i = 0; i < n; ++i) {
    Rect r = (i % 2 == 0) ? RandomPointRect(&rng, dim)
                          : RandomBoxRect(&rng, dim, 0.1f);
    rects.push_back(r);
    tree.Insert(r, static_cast<uint64_t>(i));
  }
  ASSERT_TRUE(tree.Validate().ok()) << tree.Validate();
  EXPECT_EQ(tree.size(), n);

  for (int trial = 0; trial < 20; ++trial) {
    Rect query = RandomBoxRect(&rng, dim, 0.3f);
    std::vector<uint64_t> got = tree.RangeSearch(query);
    std::sort(got.begin(), got.end());
    std::vector<uint64_t> want;
    for (int i = 0; i < n; ++i) {
      if (rects[i].Intersects(query)) want.push_back(i);
    }
    EXPECT_EQ(got, want) << "dim=" << dim << " n=" << n << " trial=" << trial;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RStarRandomized,
    ::testing::Values(std::make_tuple(2, 50), std::make_tuple(2, 500),
                      std::make_tuple(3, 200), std::make_tuple(12, 300),
                      std::make_tuple(12, 1000)));

TEST(RStarTree, NearestNeighborsMatchBruteForce) {
  const int dim = 4;
  const int n = 400;
  Rng rng(77);
  RStarTree tree(dim);
  std::vector<std::vector<float>> points;
  for (int i = 0; i < n; ++i) {
    std::vector<float> p(dim);
    for (float& v : p) v = rng.NextFloat();
    points.push_back(p);
    tree.Insert(Rect::Point(p), static_cast<uint64_t>(i));
  }
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<float> q(dim);
    for (float& v : q) v = rng.NextFloat();
    auto got = tree.NearestNeighbors(q, 5);
    ASSERT_EQ(got.size(), 5u);

    std::vector<std::pair<double, uint64_t>> brute;
    for (int i = 0; i < n; ++i) {
      double d = 0;
      for (int k = 0; k < dim; ++k) {
        double diff = points[i][k] - q[k];
        d += diff * diff;
      }
      brute.emplace_back(std::sqrt(d), i);
    }
    std::sort(brute.begin(), brute.end());
    for (int k = 0; k < 5; ++k) {
      EXPECT_NEAR(got[k].second, brute[k].first, 1e-6) << trial << " " << k;
    }
    // Distances must be non-decreasing.
    for (int k = 1; k < 5; ++k) {
      EXPECT_GE(got[k].second, got[k - 1].second);
    }
  }
}

TEST(RStarTree, DuplicatePointsAllRetrieved) {
  RStarTree tree(2);
  for (int i = 0; i < 50; ++i) {
    tree.Insert(Rect::Point({0.5f, 0.5f}), static_cast<uint64_t>(i));
  }
  std::vector<uint64_t> hits =
      tree.RangeSearch(Rect::Point({0.5f, 0.5f}).Expanded(1e-6f));
  EXPECT_EQ(hits.size(), 50u);
  EXPECT_TRUE(tree.Validate().ok());
}

TEST(RStarTree, HeightGrowsLogarithmically) {
  Rng rng(5);
  RStarTree tree(2);
  for (int i = 0; i < 2000; ++i) {
    tree.Insert(RandomPointRect(&rng, 2), static_cast<uint64_t>(i));
  }
  // M = 16, 2000 entries: height should stay small.
  EXPECT_LE(tree.height(), 5);
  EXPECT_GE(tree.height(), 2);
  EXPECT_TRUE(tree.Validate().ok()) << tree.Validate();
}

TEST(RStarTree, VisitorEarlyStop) {
  Rng rng(6);
  RStarTree tree(2);
  for (int i = 0; i < 100; ++i) {
    tree.Insert(RandomPointRect(&rng, 2), static_cast<uint64_t>(i));
  }
  int visited = 0;
  tree.RangeSearchVisit(Rect::Bounds({0, 0}, {1, 1}),
                        [&visited](const RectView&, uint64_t) {
                          ++visited;
                          return visited < 7;
                        });
  EXPECT_EQ(visited, 7);
}

TEST(RStarTree, SerializeDeserializeRoundTrip) {
  Rng rng(9);
  RStarParams params;
  params.max_entries = 8;
  RStarTree tree(3, params);
  std::vector<Rect> rects;
  for (int i = 0; i < 300; ++i) {
    Rect r = RandomBoxRect(&rng, 3, 0.05f);
    rects.push_back(r);
    tree.Insert(r, static_cast<uint64_t>(i * 7));
  }
  BinaryWriter writer;
  tree.Serialize(&writer);
  Result<RStarTree> restored = RStarTree::Deserialize(writer.buffer());
  ASSERT_TRUE(restored.ok()) << restored.status();
  EXPECT_EQ(restored->size(), tree.size());
  EXPECT_EQ(restored->dim(), 3);
  EXPECT_TRUE(restored->Validate().ok())
      << restored->Validate();

  for (int trial = 0; trial < 10; ++trial) {
    Rect query = RandomBoxRect(&rng, 3, 0.3f);
    std::vector<uint64_t> a = tree.RangeSearch(query);
    std::vector<uint64_t> b = restored->RangeSearch(query);
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
    EXPECT_EQ(a, b);
  }
}

TEST(RStarTree, DeserializeRejectsGarbage) {
  std::vector<uint8_t> garbage = {1, 2, 3, 4, 5, 6, 7, 8};
  EXPECT_FALSE(RStarTree::Deserialize(garbage).ok());
  garbage.resize(400, 0x5a);
  EXPECT_FALSE(RStarTree::Deserialize(garbage).ok());
}

TEST(RStarTree, InsertionsAfterDeserialize) {
  Rng rng(11);
  RStarTree tree(2);
  for (int i = 0; i < 100; ++i) {
    tree.Insert(RandomPointRect(&rng, 2), static_cast<uint64_t>(i));
  }
  BinaryWriter writer;
  tree.Serialize(&writer);
  RStarTree restored =
      std::move(RStarTree::Deserialize(writer.buffer())).value();
  for (int i = 100; i < 200; ++i) {
    restored.Insert(RandomPointRect(&rng, 2), static_cast<uint64_t>(i));
  }
  EXPECT_EQ(restored.size(), 200);
  EXPECT_TRUE(restored.Validate().ok()) << restored.Validate();
}

TEST(RStarTree, SmallNodeCapacityStressed) {
  Rng rng(13);
  RStarParams params;
  params.max_entries = 4;  // forces many splits and reinserts
  RStarTree tree(2, params);
  std::vector<Rect> rects;
  for (int i = 0; i < 600; ++i) {
    Rect r = RandomPointRect(&rng, 2);
    rects.push_back(r);
    tree.Insert(r, static_cast<uint64_t>(i));
    if (i % 100 == 99) {
      ASSERT_TRUE(tree.Validate().ok())
          << i << ": " << tree.Validate();
    }
  }
  Rect everything = Rect::Bounds({-1, -1}, {2, 2});
  EXPECT_EQ(tree.RangeSearch(everything).size(), 600u);
}

}  // namespace
}  // namespace walrus
