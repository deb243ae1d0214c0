#include "scoring/kernel.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>
#include <cstring>
#include <limits>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#include <immintrin.h>
#endif

#include "util/error.hpp"

// The vectorized backend uses GNU vector extensions (GCC and Clang); a
// scalar-only build (cmake -DMSPAR_SIMD=OFF, or a compiler without the
// extension) simply never defines MSPAR_SIMD_COMPILED.
#if defined(MSPAR_SIMD) && (defined(__GNUC__) || defined(__clang__))
#define MSPAR_SIMD_COMPILED 1
#endif

namespace msp {

namespace {

std::atomic<ScoringBackend> g_backend{ScoringBackend::kAuto};

/// Clamp the query's bin count to the int32 domain the ladder bins live in.
std::int32_t bin_limit(std::size_t bins) {
  constexpr auto kMax =
      static_cast<std::size_t>(std::numeric_limits<std::int32_t>::max());
  return static_cast<std::int32_t>(bins < kMax ? bins : kMax);
}

/// Ladder entries LaneFold covers: every entry of a ladder of up to 128
/// bins (peptides up to 65 residues) — two 64-entry windows of eight
/// blocks. Longer ladders (the default 100-residue candidate cap allows
/// them) take the merged walk.
constexpr std::size_t kFoldLanes = 128;
constexpr std::size_t kWindowBlocks = 8;

/// The accumulation every backend shares: the selected lanes' values summed
/// in ascending-bin order across both streams, so sums are bit-identical
/// across backends by construction.
///
/// A walk hands select() the selected lanes, one bit per ladder entry — no
/// branch per block and no per-lane work during the walk — and finish()
/// then reads each selected lane's cell once. Walk order (the b stream's
/// entries, then the y stream's, each ascending) is ascending-bin order
/// unless the first selected y bin lies below the last selected b bin; only
/// then (a few percent of the pairs) does finish() merge the two streams'
/// selected entries. Selected lanes are rare (about one per scored pair).
class LaneFold {
 public:
  /// `cells[bin]` is the value of a lane holding `bin`.
  LaneFold(const IonLadder& ladder, const float* cells)
      : ladder_(ladder), cells_(cells) {}

  /// The selected entries: 0–63 in `low`, 64–127 in `high`, one bit each.
  void select(std::uint64_t low, std::uint64_t high) {
    low_ = low;
    high_ = high;
  }

  /// The match statistics, the sum taken in ascending-bin order; when `out`
  /// is non-null, the selected values are listed into it in that order.
  /// Inlined into each backend, so the AVX2 kernel's copy is AVX2 code.
  [[gnu::always_inline]] PeakMatchStats finish(std::vector<float>* out) const {
    // Plain locals, not the returned struct's fields: they stay in
    // registers while the loops run.
    double sum = 0.0;
    std::size_t matched_b = 0;
    std::size_t matched_y = 0;
    const auto add = [&](std::size_t entry) {
      const float value = cells_[static_cast<std::uint32_t>(bin(entry))];
      sum += value;
      if (out != nullptr) out->push_back(value);
      ++(entry < ladder_.b_size ? matched_b : matched_y);
    };
    const auto stats = [&] {
      PeakMatchStats result;
      result.total_ions = ladder_.total_ions;
      result.matched_b = matched_b;
      result.matched_y = matched_y;
      result.matched_intensity = sum;
      return result;
    };
    const auto walk_order = [&] {
      for (Entries all{low_, high_}; !all.empty(); all.pop()) add(all.first());
    };
    if (out == nullptr) {
      // The order of the additions only shows in a sum of three or more
      // values (IEEE addition commutes), so sum first and ask after.
      walk_order();
      if (matched_b + matched_y < 3 || !descends()) return stats();
      sum = 0.0;
      matched_b = 0;
      matched_y = 0;
    } else {
      out->clear();
      if (!descends()) {
        walk_order();
        return stats();
      }
    }
    // A selected y bin lies below a selected b bin: merge the streams'
    // selected entries into ascending-bin order.
    Entries y{low_ & y_lanes(0), high_ & y_lanes(64)};
    Entries b{low_ & ~y.low, high_ & ~y.high};
    while (!b.empty() || !y.empty()) {
      const bool take_y =
          b.empty() || (!y.empty() && bin(y.first()) < bin(b.first()));
      Entries& from = take_y ? y : b;
      add(from.first());
      from.pop();
    }
    return stats();
  }

 private:
  /// A set of ladder entries, one bit each: 0–63 in `low`, 64–127 in
  /// `high`.
  struct Entries {
    std::uint64_t low;
    std::uint64_t high;

    bool empty() const { return (low | high) == 0; }
    std::size_t first() const {
      return low != 0 ? static_cast<std::size_t>(std::countr_zero(low))
                      : 64 + static_cast<std::size_t>(std::countr_zero(high));
    }
    std::size_t last() const {
      return high != 0
                 ? 127 - static_cast<std::size_t>(std::countl_zero(high))
                 : 63 - static_cast<std::size_t>(std::countl_zero(low));
    }
    void pop() {
      if (low != 0)
        low &= low - 1;
      else
        high &= high - 1;
    }
  };

  /// The bits of the y stream's entries (b_size and up) in the 64-entry
  /// word starting at entry `base`.
  std::uint64_t y_lanes(std::size_t base) const {
    const std::size_t first = ladder_.b_size;
    if (first <= base) return ~std::uint64_t{0};
    if (first >= base + 64) return 0;
    return ~std::uint64_t{0} << (first - base);
  }

  std::int32_t bin(std::size_t entry) const { return ladder_.bins[entry]; }

  /// Is walk order not ascending-bin order — does the first selected y bin
  /// lie below the last selected b bin?
  bool descends() const {
    const Entries y{low_ & y_lanes(0), high_ & y_lanes(64)};
    const Entries b{low_ & ~y.low, high_ & ~y.high};
    return !b.empty() && !y.empty() && bin(y.first()) < bin(b.last());
  }

  const IonLadder& ladder_;
  const float* cells_;
  std::uint64_t low_ = 0;
  std::uint64_t high_ = 0;
};

/// A ladder too long for LaneFold.
bool long_ladder(const IonLadder& ladder) { return ladder.size > kFoldLanes; }

/// The match kernel as one two-pointer walk over both streams in
/// ascending-bin order, shared by every backend for the ladders the blocked
/// walk does not take: those too long for LaneFold, and (in the vector
/// backends, whose gathers read cell 0) queries without cells. Kept out of
/// line: inlined, it would cost every call of the blocked kernels.
[[gnu::noinline, gnu::cold]] PeakMatchStats match_merged_walk(
    const BinnedSpectrum& query, const IonLadder& ladder,
    std::vector<float>* matched_out) {
  PeakMatchStats stats;
  stats.total_ions = ladder.total_ions;
  if (matched_out != nullptr) matched_out->clear();
  const float* cells = query.intensities().data();
  const std::int32_t limit = bin_limit(query.bins());
  const std::span<const std::int32_t> b = ladder.b_stream();
  const std::span<const std::int32_t> y = ladder.y_stream();
  for (std::size_t i = 0, j = 0; i < b.size() || j < y.size();) {
    const bool is_y = i == b.size() || (j < y.size() && y[j] < b[i]);
    const std::int32_t bin = is_y ? y[j++] : b[i++];
    if (bin < 0 || bin >= limit) continue;
    const float value = cells[static_cast<std::uint32_t>(bin)];
    if (!(value > 0.0f)) continue;
    stats.matched_intensity += value;
    if (matched_out != nullptr) matched_out->push_back(value);
    ++(is_y ? stats.matched_y : stats.matched_b);
  }
  return stats;
}

/// Walk every block of `ladder.bins` — the b stream, then the y stream,
/// sharing the block where the y stream starts — and hand `fold` the lanes
/// `select_block(bins)` selects (it returns the block's selected-lane
/// bitmask). The walk has no early exit: a mass-matched ladder's blocks
/// nearly all open below the query's grid limit (bench_kernel_ablation's
/// sample visits 2.959 of 2.963 blocks per pair with an exit on each
/// stream), so exit tests cost more than the blocks they skip. Every
/// backend walks the same blocks.
template <typename Select>
[[gnu::always_inline]] inline void walk_streams(const IonLadder& ladder,
                                                LaneFold& fold,
                                                const Select& select_block) {
  const std::int32_t* bins = ladder.bins.data();
  const std::size_t blocks = ladder.block_count();
  // Each window's selection builds in a register.
  const auto window = [&](std::size_t first, std::size_t end) {
    std::uint64_t bits = 0;
    for (std::size_t block = first; block < end; ++block)
      bits |= std::uint64_t{select_block(bins + block * kLadderBlock)}
              << ((block - first) * kLadderBlock);
    return bits;
  };
  const std::uint64_t low = window(0, std::min(blocks, kWindowBlocks));
  fold.select(low, blocks > kWindowBlocks ? window(kWindowBlocks, blocks) : 0);
}

}  // namespace

bool simd_compiled() {
#ifdef MSPAR_SIMD_COMPILED
  return true;
#else
  return false;
#endif
}

void set_scoring_backend(ScoringBackend backend) {
  if (backend == ScoringBackend::kSimd && !simd_compiled())
    throw InvalidArgument(
        "simd scoring backend requested but not compiled in (MSPAR_SIMD=OFF)");
  g_backend.store(backend, std::memory_order_relaxed);
}

ScoringBackend scoring_backend() {
  return g_backend.load(std::memory_order_relaxed);
}

ScoringBackend active_scoring_backend() {
  const ScoringBackend backend = scoring_backend();
  if (backend != ScoringBackend::kAuto) return backend;
  return simd_compiled() ? ScoringBackend::kSimd : ScoringBackend::kScalar;
}

PeakMatchStats match_ladder_scalar(const BinnedSpectrum& query,
                                   const IonLadder& ladder,
                                   std::vector<float>* matched_out) {
  if (long_ladder(ladder)) return match_merged_walk(query, ladder, matched_out);
  const float* cells = query.intensities().data();
  const std::int32_t limit = bin_limit(query.bins());
  LaneFold fold(ladder, cells);
  walk_streams(ladder, fold,
               [cells, limit](const std::int32_t* b) {
                 std::uint32_t bits = 0;
                 for (std::size_t lane = 0; lane < kLadderBlock; ++lane) {
                   // Padding lanes carry kLadderPadBin (< 0) and fail the
                   // same test as below-grid bins — no tail loop, no
                   // separate padding branch.
                   const bool in_range = b[lane] >= 0 && b[lane] < limit;
                   const float value =
                       in_range ? cells[static_cast<std::uint32_t>(b[lane])]
                                : 0.0f;
                   if (value > 0.0f) bits |= 1u << lane;
                 }
                 return bits;
               });
  return fold.finish(matched_out);
}

double ladder_dot_scalar(std::span<const float> weights,
                         const IonLadder& ladder) {
  const float* cells = weights.data();
  const std::int32_t limit = bin_limit(weights.size());
  double dot = 0.0;
  for_each_ladder_bin(ladder, [&](std::int32_t bin) {
    if (bin >= 0 && bin < limit) dot += cells[static_cast<std::uint32_t>(bin)];
  });
  return dot;
}

#ifdef MSPAR_SIMD_COMPILED

namespace {

typedef std::int32_t Vi32 __attribute__((vector_size(32)));
typedef std::uint32_t Vu32 __attribute__((vector_size(32)));
typedef float Vf32 __attribute__((vector_size(32)));

inline Vi32 load_bins(const std::int32_t* p) {
  Vi32 v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

/// Lane mask (-1/0 per lane) → an 8-bit bitmask, via a log2(lanes) shuffle
/// reduction (a per-lane scalar loop here would cost as much as the whole
/// scalar backend's block loop).
inline std::uint32_t movemask(Vi32 mask) {
  constexpr Vu32 kLaneBit = {1, 2, 4, 8, 16, 32, 64, 128};
  Vu32 m = reinterpret_cast<Vu32>(mask) & kLaneBit;
#if defined(__clang__)
  m |= __builtin_shufflevector(m, m, 4, 5, 6, 7, 0, 1, 2, 3);
  m |= __builtin_shufflevector(m, m, 2, 3, 0, 1, 6, 7, 4, 5);
  m |= __builtin_shufflevector(m, m, 1, 0, 3, 2, 5, 4, 7, 6);
#else
  m |= __builtin_shuffle(m, Vu32{4, 5, 6, 7, 0, 1, 2, 3});
  m |= __builtin_shuffle(m, Vu32{2, 3, 0, 1, 6, 7, 4, 5});
  m |= __builtin_shuffle(m, Vu32{1, 0, 3, 2, 5, 4, 7, 6});
#endif
  return m[0];
}

/// The generic-vector block selection (GNU vector extensions): one vector
/// compare rejects padding and below-grid lanes (< 0) and beyond-grid lanes
/// (>= limit) together. `kMatch` selects the lanes whose cell is positive
/// (the match kernel); otherwise every in-grid lane (ladder_dot).
template <bool kMatch>
std::uint32_t select_vector(const float* cells, std::int32_t limit,
                            const std::int32_t* b) {
  const Vi32 zero = {};
  const Vi32 limits = zero + limit;
  const Vi32 bv = load_bins(b);
  const Vi32 in_range = (bv >= zero) & (bv < limits);
  if constexpr (!kMatch) return movemask(in_range);
  // Branchless gather (generic vectors have no portable gather): every lane
  // reads a cell — out-of-range lanes are redirected to cell 0 by the mask
  // and their value is then masked back to +0.0f, so they can never match
  // regardless of what cell 0 holds. The lane loop runs over plain arrays
  // (vector element inserts round-trip through memory on most targets
  // anyway, so make that explicit and cheap).
  const Vi32 safe = bv & in_range;
  std::int32_t safe_lanes[kLadderBlock];
  std::memcpy(safe_lanes, &safe, sizeof(safe_lanes));
  float gathered[kLadderBlock];
  for (std::size_t lane = 0; lane < kLadderBlock; ++lane)
    gathered[lane] = cells[static_cast<std::uint32_t>(safe_lanes[lane])];
  Vf32 masked;
  std::memcpy(&masked, gathered, sizeof(masked));
  masked = reinterpret_cast<Vf32>(reinterpret_cast<Vi32>(masked) & in_range);
  return movemask(reinterpret_cast<Vi32>(masked > Vf32{}));
}

#if defined(__x86_64__)

/// Hardware-gather fast path: AVX2 gives a real 8-lane gather and a
/// one-instruction movemask, which is where the vector win actually lives
/// (the generic-vector path must gather lane-by-lane). Compiled via the
/// target attribute — the rest of the translation unit stays baseline — and
/// entered only when cpuid reports AVX2 at runtime, so the binary stays
/// portable. It walks the blocks walk_streams walks and folds through the
/// same LaneFold: identical selections, ascending bins, bit-identical
/// accumulation. Aligned to a cache line: with the function at 16 mod 32
/// bytes its per-pair cost measured ~25% higher than at 0 mod 32, so code
/// added anywhere before it in a binary moved the kernel's speed.
__attribute__((target("avx2"), aligned(64))) PeakMatchStats match_ladder_avx2(
    const BinnedSpectrum& query, const IonLadder& ladder,
    std::vector<float>* matched_out) {
  if (long_ladder(ladder) || query.bins() == 0)
    return match_merged_walk(query, ladder, matched_out);
  const float* cells = query.intensities().data();
  LaneFold fold(ladder, cells);
  const std::int32_t limit = bin_limit(query.bins());
  const __m256i last_bin = _mm256_set1_epi32(limit - 1);
  const std::int32_t* bins = ladder.bins.data();
  // walk_streams's loop, written out: walk_streams is baseline code, which
  // cannot inline an AVX2 block selection.
  const std::size_t blocks = ladder.block_count();
  const auto window = [&](std::size_t first, std::size_t end)
                          __attribute__((target("avx2"), always_inline)) {
    std::uint64_t bits = 0;
    for (std::size_t block = first; block < end; ++block) {
      const __m256i bv = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(bins + block * kLadderBlock));
      // in_range = 0 <= b < limit, as lane masks: read as unsigned, a
      // negative bin (padding, below the grid) exceeds limit − 1 too, so
      // one unsigned min and one compare test both ends.
      const __m256i in_range =
          _mm256_cmpeq_epi32(_mm256_min_epu32(bv, last_bin), bv);
      // Unmasked gather off a masked index: out-of-range lanes are
      // redirected to cell 0 (b & in_range) and their value is masked back
      // to +0.0f — a guaranteed miss. An unmasked gather beats the masked
      // form here: the mask register adds a dependency the gather has to
      // wait on.
      const __m256 gathered = _mm256_i32gather_ps(
          cells, _mm256_and_si256(bv, in_range), sizeof(float));
      const __m256 values =
          _mm256_and_ps(gathered, _mm256_castsi256_ps(in_range));
      bits |= std::uint64_t{static_cast<std::uint32_t>(_mm256_movemask_ps(
                  _mm256_cmp_ps(values, _mm256_setzero_ps(), _CMP_GT_OQ)))}
              << ((block - first) * kLadderBlock);
    }
    return bits;
  };
  const std::uint64_t low = window(0, std::min(blocks, kWindowBlocks));
  fold.select(low, blocks > kWindowBlocks ? window(kWindowBlocks, blocks) : 0);
  return fold.finish(matched_out);
}

bool cpu_has_avx2() {
  static const bool has = __builtin_cpu_supports("avx2");
  return has;
}

#endif  // __x86_64__

}  // namespace

PeakMatchStats match_ladder_simd(const BinnedSpectrum& query,
                                 const IonLadder& ladder,
                                 std::vector<float>* matched_out) {
#if defined(__x86_64__)
  if (cpu_has_avx2()) return match_ladder_avx2(query, ladder, matched_out);
#endif
  return match_ladder_vector(query, ladder, matched_out);
}

// Out of line, so match_ladder_simd stays a dispatch small enough to
// inline wherever the AVX2 kernel is the one that runs.
[[gnu::noinline]] PeakMatchStats match_ladder_vector(
    const BinnedSpectrum& query, const IonLadder& ladder,
    std::vector<float>* matched_out) {
  if (long_ladder(ladder) || query.bins() == 0)
    return match_merged_walk(query, ladder, matched_out);
  const float* cells = query.intensities().data();
  const std::int32_t limit = bin_limit(query.bins());
  LaneFold fold(ladder, cells);
  walk_streams(ladder, fold,
               [cells, limit](const std::int32_t* b) {
                 return select_vector<true>(cells, limit, b);
               });
  return fold.finish(matched_out);
}

double ladder_dot_simd(std::span<const float> weights, const IonLadder& ladder) {
  if (weights.empty() || long_ladder(ladder))
    return ladder_dot_scalar(weights, ladder);
  // In-grid lanes of both streams, summed in ascending-bin order by the
  // shared fold: the identical sequence of additions the scalar backend
  // performs (skipped lanes add nothing there either), so the dot is
  // bit-identical. The accumulation itself stays scalar: a lane-parallel
  // sum would reassociate the doubles and break bit-identity with the
  // scalar backend.
  const float* cells = weights.data();
  const std::int32_t limit = bin_limit(weights.size());
  LaneFold fold(ladder, cells);
  walk_streams(ladder, fold,
               [cells, limit](const std::int32_t* b) {
                 return select_vector<false>(cells, limit, b);
               });
  return fold.finish(nullptr).matched_intensity;
}

#else  // !MSPAR_SIMD_COMPILED

PeakMatchStats match_ladder_simd(const BinnedSpectrum&, const IonLadder&,
                                 std::vector<float>*) {
  throw InvalidArgument("simd scoring backend not compiled in");
}

PeakMatchStats match_ladder_vector(const BinnedSpectrum&, const IonLadder&,
                                   std::vector<float>*) {
  throw InvalidArgument("simd scoring backend not compiled in");
}

double ladder_dot_simd(std::span<const float>, const IonLadder&) {
  throw InvalidArgument("simd scoring backend not compiled in");
}

#endif  // MSPAR_SIMD_COMPILED

PeakMatchStats match_ladder(const BinnedSpectrum& query, const IonLadder& ladder,
                            std::vector<float>* matched_out) {
  if (active_scoring_backend() == ScoringBackend::kSimd)
    return match_ladder_simd(query, ladder, matched_out);
  return match_ladder_scalar(query, ladder, matched_out);
}

double ladder_dot(std::span<const float> weights, const IonLadder& ladder) {
  if (active_scoring_backend() == ScoringBackend::kSimd)
    return ladder_dot_simd(weights, ladder);
  return ladder_dot_scalar(weights, ladder);
}

}  // namespace msp
