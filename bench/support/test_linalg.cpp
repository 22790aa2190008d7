#include <gtest/gtest.h>

#include <cmath>

#include "support/matrix.hpp"
#include "support/solve.hpp"
#include "util/rng.hpp"

namespace mvs::linalg {
namespace {

TEST(Matrix, ConstructAndIndex) {
  Matrix m(2, 3, 1.5);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_DOUBLE_EQ(m(1, 2), 1.5);
  m(0, 0) = 7.0;
  EXPECT_DOUBLE_EQ(m(0, 0), 7.0);
}

TEST(Matrix, InitializerList) {
  const Matrix m{{1, 2}, {3, 4}};
  EXPECT_DOUBLE_EQ(m(0, 1), 2.0);
  EXPECT_DOUBLE_EQ(m(1, 0), 3.0);
}

TEST(Matrix, Identity) {
  const Matrix i = Matrix::identity(3);
  EXPECT_DOUBLE_EQ(i(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(i(0, 1), 0.0);
}

TEST(Matrix, Transpose) {
  const Matrix m{{1, 2, 3}, {4, 5, 6}};
  const Matrix t = m.transposed();
  EXPECT_EQ(t.rows(), 3u);
  EXPECT_DOUBLE_EQ(t(2, 1), 6.0);
}

TEST(Matrix, Multiply) {
  const Matrix a{{1, 2}, {3, 4}};
  const Matrix b{{5, 6}, {7, 8}};
  const Matrix c = a * b;
  EXPECT_DOUBLE_EQ(c(0, 0), 19.0);
  EXPECT_DOUBLE_EQ(c(1, 1), 50.0);
}

TEST(Matrix, MultiplyByIdentity) {
  const Matrix a{{1, 2}, {3, 4}};
  const Matrix c = a * Matrix::identity(2);
  EXPECT_DOUBLE_EQ(c(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(c(1, 1), 4.0);
}

TEST(Matrix, AddSubScale) {
  const Matrix a{{1, 2}, {3, 4}};
  const Matrix sum = a + a;
  EXPECT_DOUBLE_EQ(sum(1, 1), 8.0);
  const Matrix zero = a - a;
  EXPECT_DOUBLE_EQ(zero.norm(), 0.0);
  EXPECT_DOUBLE_EQ(a.scaled(2.0)(0, 1), 4.0);
}

TEST(Matrix, FrobeniusNorm) {
  const Matrix m{{3, 4}};
  EXPECT_DOUBLE_EQ(m.norm(), 5.0);
}

TEST(Solve, TwoByTwo) {
  const Matrix a{{2, 1}, {1, 3}};
  const auto x = solve(a, {5, 10});
  ASSERT_TRUE(x.has_value());
  EXPECT_NEAR((*x)[0], 1.0, 1e-12);
  EXPECT_NEAR((*x)[1], 3.0, 1e-12);
}

TEST(Solve, SingularReturnsNullopt) {
  const Matrix a{{1, 2}, {2, 4}};
  EXPECT_FALSE(solve(a, {1, 2}).has_value());
}

TEST(Solve, RequiresPivoting) {
  // Leading zero forces a row swap.
  const Matrix a{{0, 1}, {1, 0}};
  const auto x = solve(a, {2, 3});
  ASSERT_TRUE(x.has_value());
  EXPECT_NEAR((*x)[0], 3.0, 1e-12);
  EXPECT_NEAR((*x)[1], 2.0, 1e-12);
}

class SolveProperty : public ::testing::TestWithParam<int> {};

TEST_P(SolveProperty, RandomSystemsRoundTrip) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 97 + 1);
  const std::size_t n = 5;
  Matrix a(n, n);
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t c = 0; c < n; ++c) a(r, c) = rng.uniform(-2, 2);
  for (std::size_t d = 0; d < n; ++d) a(d, d) += 4.0;  // diagonally dominant
  std::vector<double> truth(n);
  for (double& v : truth) v = rng.uniform(-5, 5);
  std::vector<double> b(n, 0.0);
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t c = 0; c < n; ++c) b[r] += a(r, c) * truth[c];
  const auto x = solve(a, b);
  ASSERT_TRUE(x.has_value());
  for (std::size_t d = 0; d < n; ++d) EXPECT_NEAR((*x)[d], truth[d], 1e-8);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SolveProperty, ::testing::Range(0, 10));

TEST(LeastSquares, RecoversOverdeterminedLine) {
  // y = 2x + 1 sampled exactly: LS must recover it.
  Matrix a(4, 2);
  std::vector<double> b(4);
  for (int i = 0; i < 4; ++i) {
    a(static_cast<std::size_t>(i), 0) = i;
    a(static_cast<std::size_t>(i), 1) = 1.0;
    b[static_cast<std::size_t>(i)] = 2.0 * i + 1.0;
  }
  const auto x = least_squares(a, b);
  ASSERT_TRUE(x.has_value());
  EXPECT_NEAR((*x)[0], 2.0, 1e-6);
  EXPECT_NEAR((*x)[1], 1.0, 1e-6);
}

TEST(SymmetricEigen, DiagonalMatrix) {
  const Matrix a{{3, 0}, {0, 1}};
  const EigenResult e = symmetric_eigen(a);
  EXPECT_NEAR(e.values[0], 1.0, 1e-10);
  EXPECT_NEAR(e.values[1], 3.0, 1e-10);
}

TEST(SymmetricEigen, KnownPair) {
  // [[2,1],[1,2]] has eigenvalues 1 and 3.
  const Matrix a{{2, 1}, {1, 2}};
  const EigenResult e = symmetric_eigen(a);
  EXPECT_NEAR(e.values[0], 1.0, 1e-10);
  EXPECT_NEAR(e.values[1], 3.0, 1e-10);
  // Eigenvector of lambda=1 is (1,-1)/sqrt(2) up to sign.
  EXPECT_NEAR(std::abs(e.vectors(0, 0)), 1.0 / std::sqrt(2.0), 1e-8);
}

TEST(SymmetricEigen, VectorsSatisfyDefinition) {
  util::Rng rng(3);
  const std::size_t n = 4;
  Matrix a(n, n);
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t c = r; c < n; ++c) {
      const double v = rng.uniform(-1, 1);
      a(r, c) = v;
      a(c, r) = v;
    }
  const EigenResult e = symmetric_eigen(a);
  for (std::size_t k = 0; k < n; ++k) {
    // ||A v - lambda v|| ~ 0
    for (std::size_t r = 0; r < n; ++r) {
      double av = 0.0;
      for (std::size_t c = 0; c < n; ++c) av += a(r, c) * e.vectors(c, k);
      EXPECT_NEAR(av, e.values[k] * e.vectors(r, k), 1e-8);
    }
  }
}

TEST(SmallestEigenvector, NullSpaceDirection) {
  // Rank-deficient Gram matrix: null space along (1,1)/sqrt(2).
  const Matrix a{{1, -1}, {-1, 1}};
  const auto v = smallest_eigenvector(a);
  EXPECT_NEAR(v[0] - v[1], 0.0, 1e-8);
  EXPECT_NEAR(std::abs(v[0]), 1.0 / std::sqrt(2.0), 1e-8);
}

}  // namespace
}  // namespace mvs::linalg
