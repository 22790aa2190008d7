#include "support/matrix.hpp"

#include <cassert>
#include <cmath>

namespace mvs::linalg {

Matrix::Matrix(std::size_t rows, std::size_t cols, double fill)
    : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

Matrix::Matrix(std::initializer_list<std::initializer_list<double>> rows) {
  rows_ = rows.size();
  cols_ = rows_ ? rows.begin()->size() : 0;
  data_.reserve(rows_ * cols_);
  for (const auto& r : rows) {
    assert(r.size() == cols_);
    data_.insert(data_.end(), r.begin(), r.end());
  }
}

Matrix Matrix::identity(std::size_t n) {
  Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

Matrix Matrix::transposed() const {
  Matrix t(cols_, rows_);
  for (std::size_t r = 0; r < rows_; ++r)
    for (std::size_t c = 0; c < cols_; ++c) t(c, r) = (*this)(r, c);
  return t;
}

Matrix Matrix::operator*(const Matrix& rhs) const {
  assert(cols_ == rhs.rows_);
  Matrix out(rows_, rhs.cols_);
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t k = 0; k < cols_; ++k) {
      const double a = (*this)(r, k);
      if (a == 0.0) continue;
      for (std::size_t c = 0; c < rhs.cols_; ++c) out(r, c) += a * rhs(k, c);
    }
  }
  return out;
}

Matrix Matrix::operator+(const Matrix& rhs) const {
  assert(rows_ == rhs.rows_ && cols_ == rhs.cols_);
  Matrix out = *this;
  for (std::size_t i = 0; i < data_.size(); ++i) out.data_[i] += rhs.data_[i];
  return out;
}

Matrix Matrix::operator-(const Matrix& rhs) const {
  assert(rows_ == rhs.rows_ && cols_ == rhs.cols_);
  Matrix out = *this;
  for (std::size_t i = 0; i < data_.size(); ++i) out.data_[i] -= rhs.data_[i];
  return out;
}

Matrix Matrix::scaled(double k) const {
  Matrix out = *this;
  for (double& v : out.data_) v *= k;
  return out;
}

double Matrix::norm() const {
  double s = 0.0;
  for (double v : data_) s += v * v;
  return std::sqrt(s);
}

}  // namespace mvs::linalg
