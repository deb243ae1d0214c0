// Shard-resident candidate mass index.
//
// The paper's run-time is dominated by the O(r·k) scoring term (Section
// II-C), and its Discussion notes that "a dominant fraction of the query
// processing time is spent on generating candidates on-the-fly". The
// CandidateIndex moves candidate *enumeration* out of the kernel entirely:
// at pack time (once per shard) every prefix/suffix — or every digested
// peptide in tryptic mode — is materialized as a (mass, protein, offset,
// length, end) entry and the entries are sorted by mass. The kernel then
// merge-joins this array against the mass-sorted query hypotheses instead
// of re-walking every protein on every ring iteration, and Algorithm A's
// rotation ships the index alongside the shard bytes so all p ranks that
// search a shard reuse one enumeration (HiCOPS-style precomputed indexing).
//
// Masses are computed through the same FragmentMassIndex arithmetic the
// reference kernel uses, so indexed and reference searches are bit-identical.
//
// An index is clipped to a MassEnvelope: the hypothesis-mass range and the
// precursor windows of the queries it will serve. The paper's candidate rule
// (§II-A) admits only masses within m(q) ± δ, so an entry no hypothesis of
// the envelope can window is dropped at build time instead of being built,
// shipped and trimmed by every kernel call.
#pragma once

#include <cstdint>
#include <limits>
#include <string_view>
#include <vector>

#include "core/config.hpp"
#include "mass/peptide.hpp"

namespace msp {

/// One enumerated candidate of a shard: a prefix/suffix (or digested
/// peptide) of shard protein `protein`, located so the residue view can be
/// taken without copying.
///
/// Packed: its 21 bytes are exactly one entry of the MSPARIDX image, field
/// for field, so an image's entry array is viewed in place at whatever
/// offset it lands (alignment 1; the compiler emits unaligned loads for
/// the fields) and an index is encoded as one block copy.
struct [[gnu::packed]] IndexedCandidate {
  double mass = 0.0;          ///< neutral monoisotopic mass (residues + water)
  std::uint32_t protein = 0;  ///< index into the shard's proteins
  std::uint32_t offset = 0;   ///< start position within the parent sequence
  std::uint32_t length = 0;   ///< number of residues
  FragmentEnd end = FragmentEnd::kPrefix;
};
static_assert(sizeof(IndexedCandidate) ==
                  sizeof(double) + 3 * sizeof(std::uint32_t) + 1 &&
              alignof(IndexedCandidate) == 1);

/// One protein of a shard as the kernel reads it: its id and residues,
/// borrowed from a ProteinDatabase or from a shard image.
struct ProteinView {
  std::string_view id;
  std::string_view residues;
};

/// The protein table of `db`, borrowing its strings.
std::vector<ProteinView> protein_views(const ProteinDatabase& db);

/// The candidate-enumeration parameters an index was built under. An index
/// is only valid for engines whose SearchConfig agrees on all four — the
/// engine checks before searching.
struct CandidateIndexParams {
  CandidateMode mode = CandidateMode::kPrefixSuffix;
  std::uint32_t min_length = 0;
  std::uint32_t max_length = 0;
  std::uint32_t missed_cleavages = 0;  ///< only meaningful in kTryptic mode

  static CandidateIndexParams from(const SearchConfig& config);

  friend bool operator==(const CandidateIndexParams& a,
                         const CandidateIndexParams& b) = default;
};

/// The queries an index is clipped for: their lowest and highest
/// hypothesis mass and the precursor windows (a hypothesis m accepts
/// candidate masses [m − below, m + above]). The default envelope is
/// unbounded and admits every mass; lo > hi is the empty envelope (no
/// queries) and admits none.
struct MassEnvelope {
  static constexpr double kInf = std::numeric_limits<double>::infinity();

  double lo = -kInf;
  double hi = kInf;
  double below = kInf;
  double above = kInf;

  /// True when some hypothesis in [lo, hi] may window a candidate of mass
  /// `mass` under either kernel's predicate forms: the merge-join's
  /// (M − above ≤ m, M + below ≥ m) or the open walk's (M ≥ m − below,
  /// M ≤ m + above). Each test is monotone in m, so checking it at the
  /// envelope's ends can never drop a candidate a kernel would score.
  bool admits(double mass) const {
    return (mass - above <= hi || mass <= hi + above) &&
           (mass + below >= lo || mass >= lo - below);
  }

  /// True when an index clipped for this envelope holds every candidate
  /// that queries with hypotheses in [need.lo, need.hi] under need's
  /// windows can match: the range contains need's, and no window of need
  /// is wider. An empty `need` is covered by anything.
  bool covers(const MassEnvelope& need) const {
    if (need.lo > need.hi) return true;
    return lo <= need.lo && hi >= need.hi && below >= need.below &&
           above >= need.above;
  }

  friend bool operator==(const MassEnvelope& a,
                         const MassEnvelope& b) = default;
};

/// Mass-sorted candidate entries of one shard.
class CandidateIndex {
 public:
  CandidateIndex() = default;
  CandidateIndex(CandidateIndexParams params,
                 std::vector<IndexedCandidate> entries,
                 MassEnvelope envelope);

  /// Enumerate and sort every candidate of `shard` under `config`'s
  /// enumeration parameters whose mass `envelope` admits. Entry order is
  /// (mass, protein, offset, length) ascending — a total order, so the
  /// build is deterministic for a given shard and envelope.
  static CandidateIndex build(const ProteinDatabase& shard,
                              const SearchConfig& config,
                              const MassEnvelope& envelope);
  /// The unclipped index: every candidate of `shard`.
  static CandidateIndex build(const ProteinDatabase& shard,
                              const SearchConfig& config);

  const CandidateIndexParams& params() const { return params_; }
  /// The envelope the entries were clipped for (unbounded when unclipped).
  const MassEnvelope& envelope() const { return envelope_; }
  const std::vector<IndexedCandidate>& entries() const { return entries_; }
  bool empty() const { return entries_.empty(); }
  std::size_t size() const { return entries_.size(); }

 private:
  CandidateIndexParams params_;
  std::vector<IndexedCandidate> entries_;  ///< mass ascending
  MassEnvelope envelope_;
};

}  // namespace msp
