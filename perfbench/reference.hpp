// Output checks computed apart from the program: every checked row is
// re-encoded in double precision from the fitted RbfEncoder's bases() and
// biases() and scored against its own reference — cosine against the float
// class vectors, (D - 2 * hamming) / D against the 1-bit class words, or
// the symmetric per-vector int8 quantizer written out below.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "core/matrix.hpp"
#include "hdc/cyberhd.hpp"
#include "hdc/quantized.hpp"

namespace perfbench {

class Reference {
 public:
  /// bits == 32 checks the float model; 8 and 1 check a snapshot of
  /// `trained` at that width (`snapshot` supplies the 1-bit class words).
  Reference(const cyberhd::hdc::CyberHdClassifier& trained, int bits,
            const cyberhd::hdc::QuantizedCyberHd* snapshot = nullptr);

  int bits() const noexcept { return bits_; }
  std::size_t num_classes() const noexcept { return classes_; }
  /// Largest |served - reference| a score may show, and the top-two margin
  /// above which the served class must equal the reference class.
  double tolerance() const noexcept;
  /// Reference scores of one raw row (num_classes() entries).
  void scores(std::span<const float> x, std::span<double> out) const;

 private:
  void encode(std::span<const float> x, std::span<double> h) const;

  int bits_;
  std::size_t dims_;
  std::size_t features_;
  std::size_t classes_;
  std::vector<double> bases_;   // dims x features
  std::vector<double> biases_;  // dims
  std::vector<double> classes_f_;  // float model: classes x dims
  std::vector<double> class_norm_;
  std::vector<int> class_levels_;  // int8: classes x dims
  std::vector<signed char> class_signs_;  // 1-bit: classes x dims, +1/-1
};

/// The symmetric per-vector quantizer of the int8 path, in double: the LSB
/// step is mean|v| * 2^(-0.75 * 7), levels round half away from zero and
/// clamp to [-127, 127]; an all-zero vector quantizes to all-zero levels.
void quantize_int8(std::span<const double> v, std::span<int> levels);

struct CheckCounts {
  std::size_t rows = 0;
  std::size_t score_violations = 0;  ///< rows with a score beyond tolerance
  std::size_t class_violations = 0;  ///< clear-margin rows served another class
  std::size_t near_ties = 0;         ///< rows whose margin is within tolerance
  double max_abs_diff = 0.0;
  bool ok() const noexcept {
    return rows > 0 && score_violations == 0 && class_violations == 0;
  }
};

/// Check served scores (row i of `served` belongs to row rows[i] of `x`)
/// against the reference, split over `threads` threads.
CheckCounts check_scores(const Reference& ref, const cyberhd::core::Matrix& x,
                         std::span<const std::size_t> rows,
                         const cyberhd::core::Matrix& served,
                         std::size_t threads);

/// Self-test of the checks: a copy of one served score row with one score
/// moved by four tolerances must fail both the reference check and a
/// bit-identity comparison with the original row.
bool perturbation_is_caught(const Reference& ref,
                            const cyberhd::core::Matrix& x, std::size_t row,
                            std::span<const float> served);

}  // namespace perfbench
