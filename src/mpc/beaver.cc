#include "mpc/beaver.h"

#include "core/logging.h"
#include "mpc/field.h"
#include "obs/metrics.h"

namespace sqm {

BeaverTripleDealer::BeaverTripleDealer(ShamirScheme scheme, uint64_t seed)
    : scheme_(std::move(scheme)), rng_(seed) {}

BeaverTripleDealer::TripleShares BeaverTripleDealer::Deal() {
  const Field::Element a = rng_.NextBounded(Field::kModulus);
  const Field::Element b = rng_.NextBounded(Field::kModulus);
  const Field::Element c = Field::Mul(a, b);
  TripleShares shares;
  shares.a_shares = scheme_.Share(a, rng_);
  shares.b_shares = scheme_.Share(b, rng_);
  shares.c_shares = scheme_.Share(c, rng_);
  return shares;
}

std::vector<BeaverTripleDealer::TripleShares> BeaverTripleDealer::DealBatch(
    size_t count) {
  std::vector<TripleShares> batch;
  batch.reserve(count);
  for (size_t i = 0; i < count; ++i) batch.push_back(Deal());
  return batch;
}

BeaverTriplePool::BeaverTriplePool(ShamirScheme scheme, uint64_t seed,
                                   size_t capacity)
    : scheme_(std::move(scheme)),
      rng_(seed),
      a_rows_(scheme_.num_parties()),
      b_rows_(scheme_.num_parties()),
      c_rows_(scheme_.num_parties()) {
  DealInto(capacity);
}

void BeaverTriplePool::DealInto(size_t count) {
  const size_t n = scheme_.num_parties();
  for (size_t j = 0; j < n; ++j) {
    a_rows_[j].reserve(dealt_ + count);
    b_rows_[j].reserve(dealt_ + count);
    c_rows_[j].reserve(dealt_ + count);
  }
  // Same draw order as BeaverTripleDealer::Deal, so a pool and a dealer
  // with equal seeds produce byte-identical triple streams (pinned by
  // golden_stream_test).
  for (size_t i = 0; i < count; ++i) {
    const Field::Element a = rng_.NextBounded(Field::kModulus);
    const Field::Element b = rng_.NextBounded(Field::kModulus);
    const Field::Element c = Field::Mul(a, b);
    const std::vector<Field::Element> a_shares = scheme_.Share(a, rng_);
    const std::vector<Field::Element> b_shares = scheme_.Share(b, rng_);
    const std::vector<Field::Element> c_shares = scheme_.Share(c, rng_);
    for (size_t j = 0; j < n; ++j) {
      a_rows_[j].push_back(a_shares[j]);
      b_rows_[j].push_back(b_shares[j]);
      c_rows_[j].push_back(c_shares[j]);
    }
  }
  dealt_ += count;
  SQM_OBS_GAUGE_SET("mpc.beaver.pool_remaining", available());
}

Result<BeaverTriplePool::TripleBatch> BeaverTriplePool::Take(size_t count) {
  if (count > available()) {
    return Status::FailedPrecondition(
        "Beaver pool exhausted: online Mul needs " + std::to_string(count) +
        " triples, " + std::to_string(available()) + " of " +
        std::to_string(dealt_) + " remain; refusing to deal online "
        "(refill offline via Refill)");
  }
  const size_t n = scheme_.num_parties();
  TripleBatch batch;
  batch.a = SharedVector(n, count);
  batch.b = SharedVector(n, count);
  batch.c = SharedVector(n, count);
  for (size_t j = 0; j < n; ++j) {
    const auto begin = static_cast<std::ptrdiff_t>(cursor_);
    const auto end = static_cast<std::ptrdiff_t>(cursor_ + count);
    batch.a.shares(j).assign(a_rows_[j].begin() + begin,
                             a_rows_[j].begin() + end);
    batch.b.shares(j).assign(b_rows_[j].begin() + begin,
                             b_rows_[j].begin() + end);
    batch.c.shares(j).assign(c_rows_[j].begin() + begin,
                             c_rows_[j].begin() + end);
  }
  cursor_ += count;
  // Live pool depth for the fleet telemetry view (sqm-top's "pool" column
  // and fleet_metrics.json's beaver_pool_depth).
  SQM_OBS_GAUGE_SET("mpc.beaver.pool_remaining", available());
  return batch;
}

Status BeaverTriplePool::Refill(size_t count) {
  DealInto(count);
  return Status::OK();
}

Status BeaverTriplePool::Refill(size_t count,
                                const std::vector<size_t>& survivors) {
  const size_t needed = 2 * scheme_.threshold() + 1;
  size_t distinct = 0;
  std::vector<bool> seen(scheme_.num_parties(), false);
  for (size_t party : survivors) {
    if (party >= scheme_.num_parties() || seen[party]) continue;
    seen[party] = true;
    ++distinct;
  }
  if (distinct < needed) {
    return Status::FailedPrecondition(
        "Beaver refill refused: dealing degree-t triples that recombine "
        "under quorum Mul needs 2t+1 = " + std::to_string(needed) +
        " surviving dealers, have " + std::to_string(distinct));
  }
  return Refill(count);
}

BeaverMultiplier::BeaverMultiplier(BgwProtocol* protocol,
                                   BeaverTripleDealer* dealer)
    : protocol_(protocol), dealer_(dealer) {
  SQM_CHECK(protocol != nullptr && dealer != nullptr);
}

BeaverMultiplier::BeaverMultiplier(BgwProtocol* protocol,
                                   BeaverTriplePool* pool)
    : protocol_(protocol), pool_(pool) {
  SQM_CHECK(protocol != nullptr && pool != nullptr);
}

Result<SharedVector> BeaverMultiplier::Mul(const SharedVector& x,
                                           const SharedVector& y) {
  if (x.size() != y.size() || x.num_parties() != y.num_parties()) {
    return Status::InvalidArgument("Beaver Mul: shape mismatch");
  }
  const size_t n = protocol_->num_parties();
  const size_t k = x.size();
  BeaverTriplePool::TripleBatch batch;
  if (pool_ != nullptr) {
    SQM_ASSIGN_OR_RETURN(batch, pool_->Take(k));
  } else {
    // Legacy inline dealing: online timing includes the dealer's work.
    const std::vector<BeaverTripleDealer::TripleShares> triples =
        dealer_->DealBatch(k);
    batch.a = SharedVector(n, k);
    batch.b = SharedVector(n, k);
    batch.c = SharedVector(n, k);
    for (size_t j = 0; j < n; ++j) {
      for (size_t i = 0; i < k; ++i) {
        batch.a.shares(j)[i] = triples[i].a_shares[j];
        batch.b.shares(j)[i] = triples[i].b_shares[j];
        batch.c.shares(j)[i] = triples[i].c_shares[j];
      }
    }
  }
  triples_used_ += k;
  const SharedVector& a = batch.a;
  const SharedVector& b = batch.b;
  const SharedVector& c = batch.c;

  // One round: jointly open d = x - a and e = y - b (packed together so a
  // batch costs a single opening).
  SQM_ASSIGN_OR_RETURN(const SharedVector dx, protocol_->Sub(x, a));
  SQM_ASSIGN_OR_RETURN(const SharedVector ey, protocol_->Sub(y, b));
  SharedVector packed(n, 2 * k);
  for (size_t j = 0; j < n; ++j) {
    auto& dst = packed.shares(j);
    const auto& sx = dx.shares(j);
    const auto& sy = ey.shares(j);
    for (size_t i = 0; i < k; ++i) {
      dst[i] = sx[i];
      dst[k + i] = sy[i];
    }
  }
  SQM_ASSIGN_OR_RETURN(const std::vector<Field::Element> opened,
                       protocol_->Open(packed));

  // Local combination: [xy] = [c] + d*[b] + e*[a] + d*e, as three batched
  // multiply-accumulate sweeps over the opened (d, e) halves.
  const Field::Element* d = opened.data();
  const Field::Element* e = opened.data() + k;
  std::vector<Field::Element> de(k);
  Field::MulVec(d, e, de.data(), k);
  SharedVector out(n, k);
  std::vector<Field::Element> term(k);
  for (size_t j = 0; j < n; ++j) {
    auto& dst = out.shares(j);
    dst = c.shares(j);
    Field::MulVec(d, b.shares(j).data(), term.data(), k);
    Field::AddVec(dst.data(), term.data(), dst.data(), k);
    Field::MulVec(e, a.shares(j).data(), term.data(), k);
    Field::AddVec(dst.data(), term.data(), dst.data(), k);
    Field::AddVec(dst.data(), de.data(), dst.data(), k);
  }
  return out;
}

}  // namespace sqm
