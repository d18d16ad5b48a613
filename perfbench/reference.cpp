#include "reference.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <thread>

namespace perfbench {

using cyberhd::core::Matrix;

void quantize_int8(std::span<const double> v, std::span<int> levels) {
  double sum_abs = 0.0;
  for (double x : v) sum_abs += std::abs(x);
  const double mean_abs = v.empty() ? 0.0 : sum_abs / static_cast<double>(v.size());
  if (mean_abs == 0.0) {
    std::fill(levels.begin(), levels.end(), 0);
    return;
  }
  const double step = mean_abs * std::pow(2.0, -0.75 * 7.0);
  for (std::size_t i = 0; i < v.size(); ++i) {
    const double l = std::round(v[i] / step);  // half away from zero
    levels[i] = static_cast<int>(std::clamp(l, -127.0, 127.0));
  }
}

Reference::Reference(const cyberhd::hdc::CyberHdClassifier& trained, int bits,
                     const cyberhd::hdc::QuantizedCyberHd* snapshot)
    : bits_(bits) {
  const auto* rbf =
      dynamic_cast<const cyberhd::hdc::RbfEncoder*>(&trained.encoder());
  if (rbf == nullptr) throw std::runtime_error("reference needs an RBF encoder");
  dims_ = rbf->output_dim();
  features_ = rbf->input_dim();
  classes_ = trained.num_classes();
  bases_.assign(rbf->bases().data(),
                rbf->bases().data() + dims_ * features_);
  biases_.assign(rbf->biases().begin(), rbf->biases().end());

  const Matrix& w = trained.model().weights();
  classes_f_.assign(w.data(), w.data() + classes_ * dims_);
  class_norm_.assign(classes_, 0.0);
  if (bits_ == 32) {
    for (std::size_t c = 0; c < classes_; ++c) {
      double s = 0.0;
      for (std::size_t d = 0; d < dims_; ++d) {
        s += classes_f_[c * dims_ + d] * classes_f_[c * dims_ + d];
      }
      class_norm_[c] = std::sqrt(s);
    }
  } else if (bits_ == 8) {
    class_levels_.resize(classes_ * dims_);
    for (std::size_t c = 0; c < classes_; ++c) {
      quantize_int8({classes_f_.data() + c * dims_, dims_},
                    {class_levels_.data() + c * dims_, dims_});
    }
  } else if (bits_ == 1) {
    if (snapshot == nullptr || snapshot->bits() != 1) {
      throw std::runtime_error("1-bit reference needs the 1-bit snapshot");
    }
    const auto& packed = snapshot->model().packed_classes();
    class_signs_.resize(classes_ * dims_);
    for (std::size_t c = 0; c < classes_; ++c) {
      for (std::size_t d = 0; d < dims_; ++d) {
        class_signs_[c * dims_ + d] =
            static_cast<signed char>(packed[c].get(d));
      }
    }
  } else {
    throw std::runtime_error("reference supports 32, 8 and 1 bits");
  }
}

double Reference::tolerance() const noexcept {
  // Float: float-vs-double rounding of a 512-term encode and dot.
  // int8: a few query or class levels one step off at a rounding boundary.
  // 1-bit: up to two signs flipped by encodings within rounding of 0.
  if (bits_ == 32) return 1e-5;
  if (bits_ == 8) return 1e-3;
  return 4.0 / static_cast<double>(dims_);
}

void Reference::encode(std::span<const float> x, std::span<double> h) const {
  for (std::size_t d = 0; d < dims_; ++d) {
    const double* b = bases_.data() + d * features_;
    double dot = biases_[d];
    for (std::size_t f = 0; f < features_; ++f) dot += b[f] * x[f];
    h[d] = std::cos(dot);
  }
}

void Reference::scores(std::span<const float> x, std::span<double> out) const {
  std::vector<double> h(dims_);
  encode(x, h);
  if (bits_ == 32) {
    double hn = 0.0;
    for (double v : h) hn += v * v;
    hn = std::sqrt(hn);
    for (std::size_t c = 0; c < classes_; ++c) {
      double dot = 0.0;
      for (std::size_t d = 0; d < dims_; ++d) {
        dot += h[d] * classes_f_[c * dims_ + d];
      }
      out[c] = (hn == 0.0 || class_norm_[c] == 0.0)
                   ? 0.0
                   : dot / (hn * class_norm_[c]);
    }
  } else if (bits_ == 8) {
    std::vector<int> q(dims_);
    quantize_int8(h, q);
    double qn = 0.0;
    for (int v : q) qn += static_cast<double>(v) * v;
    for (std::size_t c = 0; c < classes_; ++c) {
      double dot = 0.0, cn = 0.0;
      for (std::size_t d = 0; d < dims_; ++d) {
        const double cv = class_levels_[c * dims_ + d];
        dot += cv * q[d];
        cn += cv * cv;
      }
      out[c] = (qn == 0.0 || cn == 0.0) ? 0.0
                                        : dot / (std::sqrt(qn) * std::sqrt(cn));
    }
  } else {
    for (std::size_t c = 0; c < classes_; ++c) {
      std::size_t disagree = 0;
      for (std::size_t d = 0; d < dims_; ++d) {
        const int sign = h[d] < 0.0 ? -1 : 1;
        disagree += sign != class_signs_[c * dims_ + d];
      }
      out[c] = (static_cast<double>(dims_) - 2.0 * static_cast<double>(disagree)) /
               static_cast<double>(dims_);
    }
  }
}

CheckCounts check_scores(const Reference& ref, const Matrix& x,
                         std::span<const std::size_t> rows,
                         const Matrix& served, std::size_t threads) {
  threads = std::max<std::size_t>(1, std::min(threads, rows.size()));
  std::vector<CheckCounts> part(threads);
  const double tol = ref.tolerance();
  const std::size_t classes = ref.num_classes();
  auto body = [&](std::size_t t) {
    CheckCounts& cc = part[t];
    std::vector<double> r(classes);
    for (std::size_t i = t; i < rows.size(); i += threads) {
      ref.scores(x.row(rows[i]), r);
      const auto s = served.row(i);
      ++cc.rows;
      bool bad = false;
      for (std::size_t c = 0; c < classes; ++c) {
        const double diff = std::abs(static_cast<double>(s[c]) - r[c]);
        cc.max_abs_diff = std::max(cc.max_abs_diff, diff);
        if (!(diff <= tol)) bad = true;  // NaN scores fail too
      }
      if (bad) ++cc.score_violations;
      const auto best = static_cast<std::size_t>(
          std::max_element(r.begin(), r.end()) - r.begin());
      double runner_up = -2.0;
      for (std::size_t c = 0; c < classes; ++c) {
        if (c != best) runner_up = std::max(runner_up, r[c]);
      }
      if (r[best] - runner_up > tol) {
        const auto served_best = static_cast<std::size_t>(
            std::max_element(s.begin(), s.end()) - s.begin());
        if (served_best != best) ++cc.class_violations;
      } else {
        ++cc.near_ties;
      }
    }
  };
  std::vector<std::thread> pool;
  for (std::size_t t = 1; t < threads; ++t) pool.emplace_back(body, t);
  body(0);
  for (auto& th : pool) th.join();
  CheckCounts out;
  for (const CheckCounts& p : part) {
    out.rows += p.rows;
    out.score_violations += p.score_violations;
    out.class_violations += p.class_violations;
    out.near_ties += p.near_ties;
    out.max_abs_diff = std::max(out.max_abs_diff, p.max_abs_diff);
  }
  return out;
}

bool perturbation_is_caught(const Reference& ref, const Matrix& x,
                            std::size_t row, std::span<const float> served) {
  Matrix bent(1, served.size());
  std::copy(served.begin(), served.end(), bent.row(0).begin());
  bent(0, 0) += static_cast<float>(4.0 * ref.tolerance());
  const std::size_t rows[] = {row};
  const CheckCounts cc = check_scores(ref, x, rows, bent, 1);
  return cc.score_violations == 1 &&
         !std::equal(served.begin(), served.end(), bent.row(0).begin());
}

}  // namespace perfbench
