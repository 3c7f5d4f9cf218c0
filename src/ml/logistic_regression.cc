#include "ml/logistic_regression.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "obs/obs.h"

namespace aimai {

namespace {

void Softmax(std::vector<double>* z) {
  SoftmaxInPlace(z->data(), z->size());
}

}  // namespace

std::vector<double> LogisticRegression::Standardize(const double* x) const {
  std::vector<double> out(d_);
  for (size_t j = 0; j < d_; ++j) {
    out[j] = (x[j] - mean_[j]) * inv_std_[j];
  }
  return out;
}

void LogisticRegression::Fit(const Dataset& train) {
  AIMAI_SPAN("ml.logreg.fit");
  AIMAI_CHECK(train.n() > 0);
  d_ = train.d();
  num_classes_ = std::max(2, train.NumClasses());
  const size_t k = static_cast<size_t>(num_classes_);
  const size_t n = train.n();

  // Standardization statistics.
  mean_.assign(d_, 0.0);
  inv_std_.assign(d_, 1.0);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < d_; ++j) mean_[j] += train.At(i, j);
  }
  for (size_t j = 0; j < d_; ++j) mean_[j] /= static_cast<double>(n);
  std::vector<double> var(d_, 0.0);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < d_; ++j) {
      const double dlt = train.At(i, j) - mean_[j];
      var[j] += dlt * dlt;
    }
  }
  for (size_t j = 0; j < d_; ++j) {
    const double sd = std::sqrt(var[j] / static_cast<double>(n));
    inv_std_[j] = sd > 1e-12 ? 1.0 / sd : 1.0;
  }

  const size_t wd = d_ + 1;
  w_.assign(k * wd, 0.0);
  // Adam state.
  std::vector<double> m(k * wd, 0.0), v(k * wd, 0.0);
  const double b1 = 0.9, b2 = 0.999, eps = 1e-8;
  int64_t step = 0;

  Rng rng(options_.seed);
  std::vector<size_t> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = i;

  std::vector<double> grad(k * wd);
  for (int epoch = 0; epoch < options_.epochs; ++epoch) {
    rng.Shuffle(&order);
    for (size_t start = 0; start < n; start += options_.batch_size) {
      const size_t end = std::min(n, start + options_.batch_size);
      std::fill(grad.begin(), grad.end(), 0.0);
      for (size_t idx = start; idx < end; ++idx) {
        const size_t i = order[idx];
        const std::vector<double> x = Standardize(train.Row(i));
        std::vector<double> z(k, 0.0);
        for (size_t c = 0; c < k; ++c) {
          const double* wc = &w_[c * wd];
          double dot = wc[d_];
          for (size_t j = 0; j < d_; ++j) dot += wc[j] * x[j];
          z[c] = dot;
        }
        Softmax(&z);
        const int y = train.Label(i);
        for (size_t c = 0; c < k; ++c) {
          const double err = z[c] - (static_cast<int>(c) == y ? 1.0 : 0.0);
          double* gc = &grad[c * wd];
          for (size_t j = 0; j < d_; ++j) gc[j] += err * x[j];
          gc[d_] += err;
        }
      }
      const double scale = 1.0 / static_cast<double>(end - start);
      ++step;
      const double bc1 = 1.0 - std::pow(b1, static_cast<double>(step));
      const double bc2 = 1.0 - std::pow(b2, static_cast<double>(step));
      for (size_t t = 0; t < k * wd; ++t) {
        const double g = grad[t] * scale + options_.l2 * w_[t];
        m[t] = b1 * m[t] + (1 - b1) * g;
        v[t] = b2 * v[t] + (1 - b2) * g * g;
        w_[t] -= options_.learning_rate * (m[t] / bc1) /
                 (std::sqrt(v[t] / bc2) + eps);
      }
    }
  }
}

void LogisticRegression::Save(TokenWriter* w) const {
  w->WriteTag("lr");
  w->WriteInt(num_classes_);
  w->WriteUInt(d_);
  w->WriteDoubleVector(mean_);
  w->WriteDoubleVector(inv_std_);
  w->WriteDoubleVector(w_);
}

Status LogisticRegression::Load(TokenReader* r) {
  r->ExpectTag("lr");
  const int64_t classes = r->ReadInt();
  const uint64_t d = r->ReadUInt();
  std::vector<double> mean = r->ReadDoubleVector();
  std::vector<double> inv_std = r->ReadDoubleVector();
  std::vector<double> w = r->ReadDoubleVector();
  if (!r->ok()) return r->status();
  // The reader caps vector lengths, so once `mean` matches `d` and the
  // class count is at most w's length, the product cannot overflow.
  if (mean.size() != d || inv_std.size() != d || classes < 2 ||
      static_cast<uint64_t>(classes) > w.size() ||
      w.size() != static_cast<uint64_t>(classes) * (d + 1)) {
    return Status::DataLoss("lr: weight sizes do not match");
  }
  num_classes_ = static_cast<int>(classes);
  d_ = d;
  mean_ = std::move(mean);
  inv_std_ = std::move(inv_std);
  w_ = std::move(w);
  return Status::Ok();
}

void LogisticRegression::PredictProbaInto(const double* x,
                                          double* out) const {
  AIMAI_SPAN("ml.logreg.predict");
  const size_t k = static_cast<size_t>(num_classes_);
  const size_t wd = d_ + 1;
  // Standardization folds into the dot product: wc[j] * ((x - mean) *
  // inv_std) is the exact product the staging-buffer path computed, so
  // the zero-allocation rewrite is bit-identical.
  for (size_t c = 0; c < k; ++c) {
    const double* wc = &w_[c * wd];
    double dot = wc[d_];
    for (size_t j = 0; j < d_; ++j) {
      dot += wc[j] * ((x[j] - mean_[j]) * inv_std_[j]);
    }
    out[c] = dot;
  }
  SoftmaxInPlace(out, k);
}

}  // namespace aimai
