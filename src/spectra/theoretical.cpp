#include "spectra/theoretical.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <limits>

#include "mass/amino_acid.hpp"
#include "util/error.hpp"

namespace msp {

namespace {

/// The largest bin: int32 bins beyond it clamp here (exact as a double).
constexpr double kBinClamp =
    static_cast<double>(std::numeric_limits<std::int32_t>::max());

/// The ladder grid: truncation of a positive mz / width is floor — the exact
/// arithmetic BinnedSpectrum and FragmentIndex use — with bins beyond int32
/// range clamped to INT32_MAX.
std::int32_t ladder_bin(double mz, double bin_width) {
  const double q = mz / bin_width;
  return q >= kBinClamp ? std::numeric_limits<std::int32_t>::max()
                        : static_cast<std::int32_t>(q);
}

/// Lay out the two streams once their bins are written: the b stream's
/// `b_size` bins at the front of `out.bins`, the y stream's `y_size` bins
/// at `y_from` (at or past b_size). Moves the y stream down behind the b
/// stream, pads the tail block and trims `out.bins`.
void seal_streams(IonLadder& out, std::size_t b_size, std::size_t y_from,
                  std::size_t y_size) {
  std::int32_t* bins = out.bins.data();
  // The stream moves down or stays; std::copy may not copy onto itself.
  if (y_from != b_size)
    std::copy(bins + y_from, bins + y_from + y_size, bins + b_size);
  const std::size_t size = b_size + y_size;
  const std::size_t end = ladder_padded(size);
  std::fill(bins + size, bins + end, kLadderPadBin);
  out.bins.resize(end);
  out.b_size = b_size;
  out.size = size;
}

// The default-path ion m/z of cut c (1 ≤ c < n), on exactly the doubles
// fragment_ions_into computes: mz_from_mass(m, 1) is (m + 1 · kProtonMass)
// / 1, bit-equal to m + kProtonMass, and the y mass keeps its
// (total − prefix) + water order.
double b_ion_mz(const double* prefix, std::size_t cut) {
  return prefix[cut] + kProtonMass;
}
double y_ion_mz(const double* prefix, double total, std::size_t cut) {
  return total - prefix[cut] + kWaterMass + kProtonMass;
}

/// Bin both series of cuts 1..m, each ascending: b[i] is the b ion of cut
/// i + 1 and y[i] the y ion of cut m − i.
void series_bins_scalar(const double* prefix, double total, std::size_t m,
                        double width, std::int32_t* b, std::int32_t* y) {
  for (std::size_t i = 0; i < m; ++i) {
    b[i] = ladder_bin(b_ion_mz(prefix, i + 1), width);
    y[m - 1 - i] = ladder_bin(y_ion_mz(prefix, total, i + 1), width);
  }
}

#if defined(__GNUC__) && defined(__x86_64__)
bool has_avx2() {
  static const bool has = __builtin_cpu_supports("avx2");
  return has;
}
#endif

#if defined(__GNUC__)

typedef double Vd4 __attribute__((vector_size(32)));
typedef std::int32_t Vi4 __attribute__((vector_size(16)));

/// Blend `lanes` into the four bins at `at` where `live` is set, keeping
/// the bins already there elsewhere.
inline void store_live(std::int32_t* at, Vi4 lanes, Vi4 live) {
  Vi4 kept;
  std::memcpy(&kept, at, sizeof(kept));
  const Vi4 merged = live ? lanes : kept;
  std::memcpy(at, &merged, sizeof(merged));
}

/// ladder_bin on four lanes: the same IEEE quotient at every vector width,
/// and min(q, clamp) truncates to the same bin as the clamp test.
[[gnu::always_inline]] inline Vi4 bins_of(const Vd4& mz, double width) {
  const Vd4 clamp = Vd4{} + kBinClamp;
  Vd4 q = mz / width;
  q = q < clamp ? q : clamp;
  return __builtin_convertvector(q, Vi4);
}

/// series_bins_scalar four cuts per step, for the layout where `y` directly
/// follows the m bins at `b` (m ≥ 4). Steps cover whole lanes, so `prefix`
/// must hold 1 + m rounded up to 4 entries; the last step's spare lanes
/// store nothing (they would overlap the other stream).
[[gnu::always_inline]] inline void series_bins_body(const double* prefix,
                                                    double total,
                                                    std::size_t m,
                                                    double width,
                                                    std::int32_t* b,
                                                    std::int32_t* y) {
  constexpr Vi4 kReverse = {3, 2, 1, 0};
  // Cuts i + 1 .. i + 4: b positions i .. i + 3, y positions m − 1 − i
  // down to m − 4 − i.
  const auto step = [&](std::size_t i, Vi4& b_lanes, Vi4& y_lanes) {
    Vd4 p;
    std::memcpy(&p, prefix + 1 + i, sizeof(p));
    b_lanes = bins_of(p + kProtonMass, width);
    y_lanes = __builtin_shuffle(
        bins_of(total - p + kWaterMass + kProtonMass, width), kReverse);
  };
  std::size_t i = 0;
  Vi4 b_lanes;
  Vi4 y_lanes;
  for (; i + 4 <= m; i += 4) {
    step(i, b_lanes, y_lanes);
    std::memcpy(b + i, &b_lanes, sizeof(b_lanes));
    std::memcpy(y + (m - 4 - i), &y_lanes, sizeof(y_lanes));
  }
  if (i == m) return;
  // The partial last step blends only its live lanes, b's first: the y
  // blend then keeps them where its spare lanes overlap b's tail.
  step(i, b_lanes, y_lanes);
  const Vi4 live = Vi4{0, 1, 2, 3} < static_cast<std::int32_t>(m - i);
  store_live(b + i, b_lanes, live);
  store_live(y + (static_cast<std::ptrdiff_t>(m - i) - 4), y_lanes,
             __builtin_shuffle(live, kReverse));
}

#if defined(__x86_64__)
/// The same steps as 256-bit AVX operations, entered only when cpuid
/// reports AVX2 (the rest of the translation unit stays baseline).
__attribute__((target("avx2"))) void series_bins_avx2(
    const double* prefix, double total, std::size_t m, double width,
    std::int32_t* b, std::int32_t* y) {
  series_bins_body(prefix, total, m, width, b, y);
}
#endif

/// Bin both series into `b` and the `y` right behind it.
void series_bins(const double* prefix, double total, std::size_t m,
                 double width, std::int32_t* b, std::int32_t* y) {
  // Below four cuts the last step's y lanes would reach before `b`.
  if (m < 4) return series_bins_scalar(prefix, total, m, width, b, y);
#if defined(__x86_64__)
  if (has_avx2()) return series_bins_avx2(prefix, total, m, width, b, y);
#endif
  series_bins_body(prefix, total, m, width, b, y);
}

#else  // !__GNUC__

void series_bins(const double* prefix, double total, std::size_t m,
                 double width, std::int32_t* b, std::int32_t* y) {
  series_bins_scalar(prefix, total, m, width, b, y);
}

#endif  // __GNUC__

/// Consecutive ions of one series differ by a whole residue, at least
/// glycine's 57.02146 Da: on a grid no coarser than this (with margin for
/// rounding) they never share a bin unless both clamp to INT32_MAX.
constexpr double kSeriesStepFloor = 57.0;

/// Drop the later ions of each same-bin run of an ascending series in
/// place (first-hit wins); returns the kept count.
std::size_t dedup_series(std::int32_t* bins, std::size_t count) {
  std::size_t kept = 1;
  for (std::size_t i = 1; i < count; ++i) {
    bins[kept] = bins[i];
    kept += static_cast<std::size_t>(bins[i] != bins[i - 1]);
  }
  return kept;
}

/// Apply the first-hit rule to b[i], a bin the y stream holds too, exactly
/// as the merged ladder did: the bin's first ion in m/z order is the
/// lightest b ion in it when that is no heavier than the lightest y ion
/// (the merge took b on ties), else the lightest y ion, and the other
/// stream's copy becomes kLadderPadBin (swept out by the caller). Returns
/// whether the b copy lost. Out of line: only a few percent of real
/// peptides have a shared bin.
[[gnu::noinline]] bool resolve_shared_bin(const double* prefix, double total,
                                          std::size_t m, double width,
                                          std::int32_t* b, std::size_t i,
                                          std::int32_t* y, std::size_t ny) {
  // The y copy's index: the count of y bins below it, counted without a
  // branch. Copies already marked lost lie below every later shared bin
  // (bins are non-negative and shared bins ascend), so they count too.
  std::size_t j = 0;
  for (std::size_t k = 0; k < ny; ++k)
    j += static_cast<std::size_t>(y[k] < b[i]);
  // Stream index i holds the first ion of its same-bin run, at cut i + 1 or
  // later (b) and at cut m − j or earlier (y); each series is ascending, so
  // scanning from there finds it — in one step when no series dedup ran.
  std::size_t b_cut = i + 1;
  while (ladder_bin(b_ion_mz(prefix, b_cut), width) != b[i]) ++b_cut;
  std::size_t y_cut = m - j;
  while (ladder_bin(y_ion_mz(prefix, total, y_cut), width) != y[j]) --y_cut;
  if (b_ion_mz(prefix, b_cut) <= y_ion_mz(prefix, total, y_cut)) {
    y[j] = kLadderPadBin;
    return false;
  }
  b[i] = kLadderPadBin;
  return true;
}

/// The bins among the `count` ≤ 8 · kRegs at `b` that one of the `ny` y
/// bins repeats, as a bitmask (bit i for b[i]). The b bins sit in kRegs
/// registers and each y bin is broadcast against all of them: no merge, no
/// table, no data-dependent branch. They are loaded in the four-bin groups
/// series_bins stored them in (a wider load over narrower fresh stores
/// would wait for them to retire), so the bins up to 8 · kRegs must be
/// readable; hits past `count` are dropped. `kAvx2` (the AVX2 clone) reads
/// each register's hits with one movemask.
template <int kRegs, bool kAvx2>
[[gnu::always_inline]] inline std::uint32_t shared_window(
    const std::int32_t* b, std::size_t count, const std::int32_t* y,
    std::size_t ny) {
  std::uint32_t shared = 0;
#if defined(__GNUC__)
  typedef std::int32_t Vi8 __attribute__((vector_size(32)));
  Vi8 bins[kRegs];
  Vi8 hit[kRegs];
  for (int r = 0; r < kRegs; ++r) {
    Vi4 low;
    Vi4 high;
    std::memcpy(&low, b + 8 * r, sizeof(low));
    std::memcpy(&high, b + 8 * r + 4, sizeof(high));
    bins[r] = __builtin_shufflevector(low, high, 0, 1, 2, 3, 4, 5, 6, 7);
    hit[r] = Vi8{};
  }
  for (std::size_t j = 0; j < ny; ++j) {
    const Vi8 bin = Vi8{} + y[j];
    for (int r = 0; r < kRegs; ++r) hit[r] |= bins[r] == bin;
  }
  for (int r = 0; r < kRegs; ++r) {
    std::uint32_t bits;
#if defined(__x86_64__) && !defined(__clang__)
    if constexpr (kAvx2) {
      typedef float Vf8 __attribute__((vector_size(32)));
      bits = static_cast<std::uint32_t>(
          __builtin_ia32_movmskps256(reinterpret_cast<Vf8>(hit[r])));
    } else
#endif
    {
      // Lane l contributes bit l; three shuffle-or steps gather the bits
      // into every lane.
      Vi8 lanes = hit[r] & Vi8{1, 2, 4, 8, 16, 32, 64, 128};
      lanes |= __builtin_shufflevector(lanes, lanes, 4, 5, 6, 7, 0, 1, 2, 3);
      lanes |= __builtin_shufflevector(lanes, lanes, 2, 3, 0, 1, 6, 7, 4, 5);
      lanes |= __builtin_shufflevector(lanes, lanes, 1, 0, 3, 2, 5, 4, 7, 6);
      bits = static_cast<std::uint32_t>(lanes[0]);
    }
    shared |= bits << (8 * r);
  }
#else
  for (std::size_t j = 0; j < ny; ++j)
    for (std::size_t i = 0; i < 8 * kRegs; ++i)
      shared |= static_cast<std::uint32_t>(b[i] == y[j]) << i;
#endif
  return shared & static_cast<std::uint32_t>((std::uint64_t{1} << count) - 1);
}

/// shared_window over a window of any `count` ≤ 32 bins.
template <bool kAvx2>
[[gnu::always_inline]] inline std::uint32_t shared_bins_body(
    const std::int32_t* b, std::size_t count, const std::int32_t* y,
    std::size_t ny) {
  if (ny == 0) return 0;
  switch ((count + 7) / 8) {
    case 1: return shared_window<1, kAvx2>(b, count, y, ny);
    case 2: return shared_window<2, kAvx2>(b, count, y, ny);
    case 3: return shared_window<3, kAvx2>(b, count, y, ny);
    default: return shared_window<4, kAvx2>(b, count, y, ny);
  }
}

#if defined(__GNUC__) && defined(__x86_64__)
/// The same compares as 256-bit AVX operations, entered only when cpuid
/// reports AVX2.
__attribute__((target("avx2"))) std::uint32_t shared_bins_avx2(
    const std::int32_t* b, std::size_t count, const std::int32_t* y,
    std::size_t ny) {
  return shared_bins_body<true>(b, count, y, ny);
}
#endif

/// shared_bins_body on the widest registers the CPU has.
std::uint32_t shared_bins(const std::int32_t* b, std::size_t count,
                          const std::int32_t* y, std::size_t ny) {
#if defined(__GNUC__) && defined(__x86_64__)
  if (has_avx2()) return shared_bins_avx2(b, count, y, ny);
#endif
  return shared_bins_body<false>(b, count, y, ny);
}

/// Find the bins both deduplicated streams hold and apply the first-hit
/// rule to each, without a merge: every window of up to 32 b bins against
/// every y bin through shared_bins. `b` must be readable up to nb rounded
/// to 8 bins.
void drop_shared_bins(const double* prefix, double total, std::size_t m,
                      double width, std::int32_t* b, std::size_t& nb,
                      std::int32_t* y, std::size_t& ny) {
  constexpr std::size_t kWindow = 32;
  bool b_lost = false;
  bool y_lost = false;
  for (std::size_t first = 0; first < nb; first += kWindow) {
    for (std::uint32_t shared =
             shared_bins(b + first, std::min(kWindow, nb - first), y, ny);
         shared != 0; shared &= shared - 1) {
      const bool lost = resolve_shared_bin(
          prefix, total, m, width, b,
          first + static_cast<std::size_t>(std::countr_zero(shared)), y, ny);
      b_lost |= lost;
      y_lost |= !lost;
    }
  }
  if (b_lost)
    nb = static_cast<std::size_t>(std::remove(b, b + nb, kLadderPadBin) - b);
  if (y_lost)
    ny = static_cast<std::size_t>(std::remove(y, y + ny, kLadderPadBin) - y);
}

}  // namespace

void build_ion_ladder(const std::vector<FragmentIon>& ions, double bin_width,
                      IonLadder& out) {
  MSP_CHECK_MSG(bin_width > 0.0, "ladder bin width must be positive");
  // b bins fill from the front, y bins from a slot past every ion; the y
  // stream then moves down behind the b stream.
  const std::size_t y_slot = ions.size();
  out.bins.resize(y_slot + ladder_padded(y_slot));
  std::int32_t* bins = out.bins.data();
  std::size_t b_size = 0;
  std::size_t y_size = 0;
  std::int32_t last_bin = kLadderPadBin;
  for (const FragmentIon& ion : ions) {
    const std::int32_t bin = ladder_bin(ion.mz, bin_width);
    // Ions are m/z-ascending, so same-bin duplicates are adjacent: the first
    // ion claims the bin (first-hit wins), later ones are the duplicate-bin
    // double count the kernel must not re-add.
    if (bin == last_bin) continue;
    last_bin = bin;
    if (ion.type == FragmentIon::Type::kY)
      bins[y_slot + y_size++] = bin;
    else
      bins[b_size++] = bin;
  }
  seal_streams(out, b_size, y_slot, y_size);
  out.total_ions = ions.size();
}

const IonLadder& build_peptide_ladder(std::string_view peptide,
                                      double bin_width,
                                      FragmentIonWorkspace& workspace) {
  MSP_CHECK_MSG(peptide.size() >= 2,
                "cannot fragment a peptide shorter than 2");
  MSP_CHECK_MSG(bin_width > 0.0, "ladder bin width must be positive");
  residue_prefix_sums(peptide, workspace.prefix);
  const std::size_t n = peptide.size();
  const std::size_t m = n - 1;  // ions per series: one per cut
  // series_bins steps four cuts at a time: room for the last step's lanes.
  const std::size_t lanes = (m + 3) & ~std::size_t{3};
  if (workspace.prefix.size() < 1 + lanes) workspace.prefix.resize(1 + lanes);
  const double* prefix = workspace.prefix.data();
  const double total = prefix[n];

  // Both series bin straight into the ladder, b at the front and y right
  // behind it. The tail block is padded first and the series store only
  // their live lanes, so a ladder that drops no bin is complete as is.
  IonLadder& out = workspace.ladder;
  out.bins.resize(ladder_padded(2 * m));
  std::int32_t* b = out.bins.data();
  std::int32_t* y = b + m;
  std::fill(out.bins.end() - kLadderBlock, out.bins.end(), kLadderPadBin);
  series_bins(prefix, total, m, bin_width, b, y);

  std::size_t nb = m;
  std::size_t ny = m;
  constexpr std::int32_t kClamped = std::numeric_limits<std::int32_t>::max();
  if (!(bin_width <= kSeriesStepFloor) || b[m - 1] == kClamped ||
      y[m - 1] == kClamped) {
    nb = dedup_series(b, m);
    ny = dedup_series(y, m);
  }
  drop_shared_bins(prefix, total, m, bin_width, b, nb, y, ny);
  if (nb != m || ny != m) {
    seal_streams(out, nb, m, ny);
  } else {
    out.b_size = m;
    out.size = 2 * m;
  }
  out.total_ions = 2 * m;
  return out;
}

const std::vector<FragmentIon>& fragment_ions_into(
    std::string_view peptide, const TheoreticalOptions& options,
    FragmentIonWorkspace& workspace) {
  MSP_CHECK_MSG(peptide.size() >= 2,
                "cannot fragment a peptide shorter than 2");
  MSP_CHECK_MSG(options.site_deltas.empty() ||
                    options.site_deltas.size() == peptide.size(),
                "site_deltas must be empty or match peptide length");
  MSP_CHECK_MSG(options.max_fragment_charge >= 1,
                "fragment charge must be >= 1");

  // Running residue-mass prefix (with per-site deltas applied).
  std::vector<double>& prefix = workspace.prefix;
  prefix.assign(peptide.size() + 1, 0.0);
  for (std::size_t i = 0; i < peptide.size(); ++i) {
    double residue = residue_mass(peptide[i]);
    if (!options.site_deltas.empty()) residue += options.site_deltas[i];
    prefix[i + 1] = prefix[i] + residue;
  }
  const double total = prefix.back();

  std::vector<FragmentIon>& ions = workspace.ions;
  ions.clear();
  ions.reserve(2 * (peptide.size() - 1) *
               static_cast<std::size_t>(options.max_fragment_charge));
  // b-ion: residues [0, cut); neutral mass = prefix — water is *not*
  // subtracted: a b-ion is the acylium fragment, sum(residues).
  // y-ion: residues [cut, n) plus water.
  //
  // In the default configuration (singly-charged b and y) the b series
  // ascends with cut and the y series descends, so walking the y series
  // from the last cut backward gives two ascending streams and a two-pointer
  // merge produces the sorted output in O(n) — this replaces a per-candidate
  // std::sort that dominated the scoring hot loop. Ties order b before y
  // (deterministic, where the sort's tie order was unspecified).
  const auto n = static_cast<unsigned>(peptide.size());
  // site_deltas could in principle be negative enough to break the series'
  // monotonicity, so modified candidates take the sort path below.
  if (options.max_fragment_charge == 1 && options.include_b &&
      options.include_y && options.site_deltas.empty()) {
    unsigned bcut = 1;
    unsigned ycut = n - 1;
    double b_mz = mz_from_mass(prefix[bcut], 1);
    double y_mz = mz_from_mass(total - prefix[ycut] + kWaterMass, 1);
    while (bcut < n && ycut >= 1) {
      if (b_mz <= y_mz) {
        ions.push_back(FragmentIon{b_mz, FragmentIon::Type::kB, bcut});
        if (++bcut < n) b_mz = mz_from_mass(prefix[bcut], 1);
      } else {
        ions.push_back(FragmentIon{y_mz, FragmentIon::Type::kY, n - ycut});
        if (--ycut >= 1)
          y_mz = mz_from_mass(total - prefix[ycut] + kWaterMass, 1);
      }
    }
    for (; bcut < n; ++bcut)
      ions.push_back(
          FragmentIon{mz_from_mass(prefix[bcut], 1), FragmentIon::Type::kB,
                      bcut});
    for (; ycut >= 1; --ycut)
      ions.push_back(
          FragmentIon{mz_from_mass(total - prefix[ycut] + kWaterMass, 1),
                      FragmentIon::Type::kY, n - ycut});
    return ions;
  }
  for (unsigned cut = 1; cut < n; ++cut) {
    const double b_neutral = prefix[cut];
    const double y_neutral = total - prefix[cut] + kWaterMass;
    for (int z = 1; z <= options.max_fragment_charge; ++z) {
      if (options.include_b)
        ions.push_back(FragmentIon{mz_from_mass(b_neutral, z),
                                   FragmentIon::Type::kB, cut});
      if (options.include_y)
        ions.push_back(FragmentIon{mz_from_mass(y_neutral, z),
                                   FragmentIon::Type::kY, n - cut});
    }
  }
  std::sort(ions.begin(), ions.end(), [](const FragmentIon& a,
                                         const FragmentIon& b) {
    return a.mz < b.mz;
  });
  return ions;
}

std::vector<FragmentIon> fragment_ions(std::string_view peptide,
                                       const TheoreticalOptions& options) {
  FragmentIonWorkspace workspace;
  fragment_ions_into(peptide, options, workspace);
  return std::move(workspace.ions);
}

Spectrum model_spectrum(std::string_view peptide,
                        const TheoreticalOptions& options) {
  const auto ions = fragment_ions(peptide, options);
  std::vector<Peak> peaks;
  peaks.reserve(ions.size());
  for (const FragmentIon& ion : ions) {
    // Tryptic CID spectra are y-ion dominated; 1.0 vs 0.6 is the usual
    // first-order weighting (the likelihood model renormalizes anyway).
    const double intensity = ion.type == FragmentIon::Type::kY ? 1.0 : 0.6;
    peaks.push_back(Peak{ion.mz, intensity});
  }
  double delta_total = 0.0;
  for (double d : options.site_deltas) delta_total += d;
  const double parent = peptide_mass(peptide) + delta_total;
  return Spectrum(std::move(peaks), mz_from_mass(parent, 1), 1,
                  std::string(peptide));
}

}  // namespace msp
