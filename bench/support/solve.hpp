#pragma once
// Linear solvers: Gaussian elimination with partial pivoting, ridge-
// regularized least squares (normal equations), and a Jacobi rotation
// eigen-solver for symmetric matrices (used by the homography DLT).

#include <optional>
#include <vector>

#include "support/matrix.hpp"

namespace mvs::linalg {

/// Solve A x = b for square A. Returns nullopt if A is (numerically)
/// singular.
std::optional<std::vector<double>> solve(const Matrix& a,
                                         const std::vector<double>& b);

/// Least-squares solve of A x = b (A has >= cols rows) via normal equations
/// with ridge term `lambda` for conditioning. Returns nullopt on failure.
std::optional<std::vector<double>> least_squares(const Matrix& a,
                                                 const std::vector<double>& b,
                                                 double lambda = 1e-9);

struct EigenResult {
  std::vector<double> values;  ///< ascending
  Matrix vectors;              ///< column i is the eigenvector of values[i]
};

/// Jacobi eigen-decomposition of a symmetric matrix.
EigenResult symmetric_eigen(const Matrix& a, int max_sweeps = 64);

/// Eigenvector of the smallest eigenvalue (the DLT null-space direction).
std::vector<double> smallest_eigenvector(const Matrix& a);

}  // namespace mvs::linalg
