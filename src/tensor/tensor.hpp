// Dense row-major n-dimensional tensor.
//
// This is the storage type shared by the nn/fno training stack (float), the
// PDE solvers (double), and the FFT module (std::complex). It is deliberately
// minimal: contiguous row-major data, shape/stride bookkeeping, elementwise
// helpers, and reductions. Heavy kernels (GEMM, FFT, spectral contraction)
// operate on raw spans for performance.
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <complex>
#include <initializer_list>
#include <numeric>
#include <span>
#include <vector>

#include "util/common.hpp"
#include "util/rng.hpp"

namespace turb {

using Shape = std::vector<index_t>;

/// Product of all extents.
inline index_t numel(const Shape& shape) {
  return std::accumulate(shape.begin(), shape.end(), index_t{1},
                         std::multiplies<>());
}

/// Row-major strides for a shape.
inline Shape row_major_strides(const Shape& shape) {
  Shape strides(shape.size());
  index_t acc = 1;
  for (std::size_t i = shape.size(); i-- > 0;) {
    strides[i] = acc;
    acc *= shape[i];
  }
  return strides;
}

template <typename T>
class Tensor {
 public:
  using value_type = T;

  Tensor() = default;

  explicit Tensor(Shape shape)
      : shape_(std::move(shape)),
        strides_(row_major_strides(shape_)),
        data_(static_cast<std::size_t>(numel(shape_))) {
    for (const index_t d : shape_) TURB_CHECK(d >= 0);
  }

  Tensor(Shape shape, T fill_value) : Tensor(std::move(shape)) {
    std::fill(data_.begin(), data_.end(), fill_value);
  }

  static Tensor zeros(Shape shape) { return Tensor(std::move(shape)); }

  static Tensor full(Shape shape, T value) {
    return Tensor(std::move(shape), value);
  }

  // --- shape -------------------------------------------------------------

  [[nodiscard]] const Shape& shape() const { return shape_; }
  [[nodiscard]] const Shape& strides() const { return strides_; }
  [[nodiscard]] index_t dim(std::size_t i) const {
    TURB_CHECK(i < shape_.size());
    return shape_[i];
  }
  [[nodiscard]] std::size_t rank() const { return shape_.size(); }
  [[nodiscard]] index_t size() const {
    return static_cast<index_t>(data_.size());
  }
  [[nodiscard]] bool empty() const { return data_.empty(); }

  /// Reshape in place; the element count must be preserved.
  void reshape(Shape shape) {
    TURB_CHECK_MSG(numel(shape) == size(),
                   "reshape " << size() << " elements to incompatible shape");
    shape_ = std::move(shape);
    strides_ = row_major_strides(shape_);
  }

  /// Change shape and element count in place. Storage is reused whenever
  /// its capacity suffices, so this never allocates for a shape no larger
  /// than one held before; element values are unspecified afterwards.
  void resize(std::span<const index_t> shape) {
    shape_.assign(shape.begin(), shape.end());
    strides_.resize(shape_.size());
    index_t acc = 1;
    for (std::size_t i = shape_.size(); i-- > 0;) {
      TURB_CHECK(shape_[i] >= 0);
      strides_[i] = acc;
      acc *= shape_[i];
    }
    const auto count = static_cast<std::size_t>(acc);
    if (count > data_.capacity()) {
      // Grow to exactly `count`, releasing the old block first (vector's
      // geometric growth would over-allocate).
      std::vector<T>().swap(data_);
    }
    data_.resize(count);
  }

  /// Elements the current storage holds without reallocating.
  [[nodiscard]] index_t capacity() const {
    return static_cast<index_t>(data_.capacity());
  }

  // --- element access ----------------------------------------------------

  [[nodiscard]] T* data() { return data_.data(); }
  [[nodiscard]] const T* data() const { return data_.data(); }
  [[nodiscard]] std::span<T> span() { return {data_.data(), data_.size()}; }
  [[nodiscard]] std::span<const T> span() const {
    return {data_.data(), data_.size()};
  }

  T& operator[](index_t flat) { return data_[static_cast<std::size_t>(flat)]; }
  const T& operator[](index_t flat) const {
    return data_[static_cast<std::size_t>(flat)];
  }

  template <typename... Ix>
  T& operator()(Ix... indices) {
    return data_[static_cast<std::size_t>(flat_index(indices...))];
  }

  template <typename... Ix>
  const T& operator()(Ix... indices) const {
    return data_[static_cast<std::size_t>(flat_index(indices...))];
  }

  template <typename... Ix>
  [[nodiscard]] index_t flat_index(Ix... indices) const {
    constexpr std::size_t n = sizeof...(Ix);
    TURB_CHECK_MSG(n == shape_.size(), "indexing rank mismatch");
    const std::array<index_t, n> ix{static_cast<index_t>(indices)...};
    index_t flat = 0;
    for (std::size_t i = 0; i < n; ++i) {
      flat += ix[i] * strides_[i];
    }
    return flat;
  }

  // --- mutation ----------------------------------------------------------

  void fill(T value) { std::fill(data_.begin(), data_.end(), value); }

  void zero() { fill(T{}); }

  /// In-place elementwise scaling.
  Tensor& operator*=(T s) {
    for (auto& v : data_) v *= s;
    return *this;
  }

  Tensor& operator+=(const Tensor& other) {
    TURB_CHECK(other.size() == size());
    for (index_t i = 0; i < size(); ++i) data_[i] += other.data_[i];
    return *this;
  }

  Tensor& operator-=(const Tensor& other) {
    TURB_CHECK(other.size() == size());
    for (index_t i = 0; i < size(); ++i) data_[i] -= other.data_[i];
    return *this;
  }

  /// this += alpha * other (axpy).
  void add_scaled(const Tensor& other, T alpha) {
    TURB_CHECK(other.size() == size());
    for (index_t i = 0; i < size(); ++i) data_[i] += alpha * other.data_[i];
  }

  /// Fill with i.i.d. uniform values on [lo, hi).
  void fill_uniform(Rng& rng, double lo, double hi) {
    for (auto& v : data_) v = static_cast<T>(rng.uniform(lo, hi));
  }

  /// Fill with i.i.d. normal values.
  void fill_normal(Rng& rng, double mean, double stddev) {
    for (auto& v : data_) v = static_cast<T>(rng.normal(mean, stddev));
  }

  // --- reductions (real element types) ------------------------------------

  [[nodiscard]] T sum() const {
    return std::accumulate(data_.begin(), data_.end(), T{});
  }

  [[nodiscard]] double mean() const {
    TURB_CHECK(!data_.empty());
    double acc = 0.0;
    for (const auto& v : data_) acc += static_cast<double>(v);
    return acc / static_cast<double>(data_.size());
  }

  /// Squared L2 norm (sum of squares), accumulated in double.
  [[nodiscard]] double squared_norm() const {
    double acc = 0.0;
    for (const auto& v : data_) {
      const double d = static_cast<double>(v);
      acc += d * d;
    }
    return acc;
  }

  [[nodiscard]] double norm() const { return std::sqrt(squared_norm()); }

  [[nodiscard]] double max_abs() const {
    double m = 0.0;
    for (const auto& v : data_) m = std::max(m, std::abs(static_cast<double>(v)));
    return m;
  }

 private:
  Shape shape_;
  Shape strides_;
  std::vector<T> data_;
};

/// Convert element type (e.g. solver double fields → nn float tensors).
template <typename To, typename From>
Tensor<To> cast(const Tensor<From>& src) {
  Tensor<To> out(src.shape());
  for (index_t i = 0; i < src.size(); ++i) {
    out[i] = static_cast<To>(src[i]);
  }
  return out;
}

/// Render a shape like [2, 3, 4] (debugging / error messages).
std::string shape_to_string(const Shape& shape);

using TensorF = Tensor<float>;
using TensorD = Tensor<double>;
using TensorCF = Tensor<std::complex<float>>;
using TensorCD = Tensor<std::complex<double>>;

}  // namespace turb
