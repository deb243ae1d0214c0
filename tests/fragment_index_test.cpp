// Open-search validation for the fragment-ion-indexed candidate source.
//
// The central claim (DESIGN.md §5i): both open-search candidate sources —
// exhaustive mass-window enumeration and the fragment-ion index — compute
// the identical integer votes (shared_peak_count over the same b/y ladder
// and global bin grid), so they admit the identical survivor set and the
// kernel produces bit-identical hits whichever source is plugged in, across
// window widths, PTM sets, thread counts, fault schedules, and transports.
// The database-walking search_shard_reference() is the oracle both are
// compared against. The wire tests pin the "MSPARFRG" record format:
// round-trip equality, loud rejection of corrupted records, and silent
// fallback to exhaustive enumeration for legacy pack images.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/algorithm_a.hpp"
#include "core/candidate_index.hpp"
#include "core/candidate_source.hpp"
#include "core/fragment_index.hpp"
#include "core/packdb.hpp"
#include "core/search_engine.hpp"
#include "dbgen/protein_gen.hpp"
#include "dbgen/query_gen.hpp"
#include "io/fasta.hpp"
#include "io/wire_record.hpp"
#include "mass/ptm.hpp"
#include "scoring/shared_peak.hpp"
#include "serve/service.hpp"
#include "simmpi/runtime.hpp"
#include "util/error.hpp"

namespace msp {
namespace {

struct Workload {
  ProteinDatabase db;
  std::string image;
  std::vector<Spectrum> queries;

  Workload() {
    ProteinGenOptions db_options;
    db_options.sequence_count = 40;
    db_options.mean_length = 110;
    db_options.seed = 9117;
    db = generate_proteins(db_options);
    image = to_fasta_string(db);

    QueryGenOptions q_options;
    q_options.query_count = 14;
    q_options.seed = 9118;
    q_options.digest.min_length = 6;
    q_options.digest.max_length = 25;
    queries = spectra_of(generate_queries(db, q_options));
  }
};

const Workload& workload() {
  static const Workload w;
  return w;
}

/// An open-search base config: ±25 Da on top of the tolerance unless a test
/// overrides it. Votes gate at 2 matched ions, the shipping default.
SearchConfig open_config() {
  SearchConfig config;
  config.tolerance_da = 2.0;
  config.tau = 5;
  config.min_candidate_length = 5;
  config.max_candidate_length = 40;
  config.model = ScoreModel::kLikelihood;
  config.open_window_da = 25.0;
  config.min_fragment_votes = 2;
  return config;
}

struct KernelRun {
  QueryHits hits;
  ShardSearchStats stats;
  std::vector<std::uint64_t> per_query;
};

KernelRun run_shard(const SearchConfig& config, const CandidateIndex* index,
                    const FragmentIndex* fragment) {
  const Workload& w = workload();
  const SearchEngine engine(config);
  const PreparedQueries prepared = engine.prepare(
      std::span<const Spectrum>(w.queries.data(), w.queries.size()));
  KernelRun run;
  run.per_query.assign(prepared.size(), 0);
  std::vector<TopK<Hit>> tops = engine.make_tops(prepared.size());
  run.stats =
      engine.search_shard(w.db, prepared, tops, &run.per_query, index,
                          fragment);
  run.hits = engine.finalize(tops);
  return run;
}

KernelRun run_view(const SearchConfig& config, const ShardView& shard) {
  const Workload& w = workload();
  const SearchEngine engine(config);
  const PreparedQueries prepared = engine.prepare(
      std::span<const Spectrum>(w.queries.data(), w.queries.size()));
  KernelRun run;
  run.per_query.assign(prepared.size(), 0);
  std::vector<TopK<Hit>> tops = engine.make_tops(prepared.size());
  run.stats = engine.search_shard(shard, prepared, tops, &run.per_query);
  run.hits = engine.finalize(tops);
  return run;
}

KernelRun run_reference(const SearchConfig& config) {
  const Workload& w = workload();
  const SearchEngine engine(config);
  const PreparedQueries prepared = engine.prepare(
      std::span<const Spectrum>(w.queries.data(), w.queries.size()));
  KernelRun run;
  run.per_query.assign(prepared.size(), 0);
  std::vector<TopK<Hit>> tops = engine.make_tops(prepared.size());
  run.stats =
      engine.search_shard_reference(w.db, prepared, tops, &run.per_query);
  run.hits = engine.finalize(tops);
  return run;
}

/// Bit-exact: determinism means exact score equality, not tolerance
/// equality — every path sums the same doubles in the same order.
void expect_hits_identical(const QueryHits& got, const QueryHits& want,
                           const std::string& label) {
  ASSERT_EQ(got.size(), want.size()) << label;
  for (std::size_t q = 0; q < want.size(); ++q) {
    ASSERT_EQ(got[q].size(), want[q].size()) << label << " query " << q;
    for (std::size_t h = 0; h < want[q].size(); ++h) {
      const Hit& a = got[q][h];
      const Hit& b = want[q][h];
      EXPECT_EQ(a.score, b.score) << label << " q" << q << " h" << h;
      EXPECT_EQ(a.protein_id, b.protein_id) << label << " q" << q << " h" << h;
      EXPECT_EQ(a.offset, b.offset) << label << " q" << q << " h" << h;
      EXPECT_EQ(a.length, b.length) << label << " q" << q << " h" << h;
      EXPECT_EQ(a.end, b.end) << label << " q" << q << " h" << h;
      EXPECT_EQ(a.peptide, b.peptide) << label << " q" << q << " h" << h;
    }
  }
}

std::vector<Ptm> ptm_set(int which) {
  switch (which) {
    case 1:
      return {ptm_phospho_s(), ptm_phospho_t()};
    case 2:
      return {ptm_phospho_s(), ptm_phospho_t(), ptm_oxidation_m()};
    default:
      return {};
  }
}

// ---------- oracle matrix: both sources vs the reference kernel ----------

TEST(OpenSearchOracle, SourcesMatchReferenceAcrossWindowsAndPtms) {
  const Workload& w = workload();
  for (const double window : {25.0, 100.0}) {
    for (const int ptms : {0, 1, 2}) {
      for (const CandidateMode mode :
           {CandidateMode::kPrefixSuffix, CandidateMode::kTryptic}) {
        SearchConfig config = open_config();
        config.open_window_da = window;
        config.ptms = ptm_set(ptms);
        config.max_ptm_mods = 1;
        config.candidate_mode = mode;
        const std::string label = "window=" + std::to_string(window) +
                                  " ptms=" + std::to_string(ptms) + " mode=" +
                                  std::to_string(static_cast<int>(mode));

        const CandidateIndex index = CandidateIndex::build(w.db, config);
        const FragmentIndex fragment =
            FragmentIndex::build(w.db, index, config.bin_width);

        const KernelRun oracle = run_reference(config);

        config.candidate_source = CandidateSourceKind::kMassWindow;
        const KernelRun exhaustive = run_shard(config, &index, nullptr);

        config.candidate_source = CandidateSourceKind::kFragmentIndex;
        const KernelRun indexed = run_shard(config, &index, &fragment);

        // kAuto with a shipped fragment record takes the indexed path; the
        // result must be indistinguishable either way.
        config.candidate_source = CandidateSourceKind::kAuto;
        const KernelRun automatic = run_shard(config, &index, &fragment);

        expect_hits_identical(exhaustive.hits, oracle.hits,
                              label + " exhaustive");
        expect_hits_identical(indexed.hits, oracle.hits, label + " indexed");
        expect_hits_identical(automatic.hits, oracle.hits, label + " auto");

        // Both sources window and gate identically: same survivors fully
        // scored, same per-query candidate accounting, same hit offers.
        EXPECT_EQ(indexed.stats.candidates_evaluated,
                  exhaustive.stats.candidates_evaluated)
            << label;
        EXPECT_EQ(indexed.stats.hits_offered, exhaustive.stats.hits_offered)
            << label;
        EXPECT_EQ(indexed.per_query, exhaustive.per_query) << label;

        // The costs differ in the advertised direction: the indexed source
        // builds ions only for survivors and pays postings scans instead.
        EXPECT_LT(indexed.stats.ions_built, exhaustive.stats.ions_built)
            << label;
        EXPECT_GT(indexed.stats.postings_scanned, 0u) << label;
        EXPECT_EQ(exhaustive.stats.postings_scanned, 0u) << label;
      }
    }
  }
}

TEST(OpenSearchOracle, NarrowSearchIgnoresFragmentIndex) {
  const Workload& w = workload();
  SearchConfig config = open_config();
  config.open_window_da = 0.0;  // not open: ±tolerance merge-join
  const CandidateIndex index = CandidateIndex::build(w.db, config);
  const FragmentIndex fragment =
      FragmentIndex::build(w.db, index, config.bin_width);

  const KernelRun plain = run_shard(config, &index, nullptr);
  config.candidate_source = CandidateSourceKind::kFragmentIndex;
  const KernelRun with_fragment = run_shard(config, &index, &fragment);
  expect_hits_identical(with_fragment.hits, plain.hits, "narrow");
  EXPECT_EQ(with_fragment.stats.postings_scanned, 0u);
}

// ---------- postings completeness: votes == shared_peak_count ----------

TEST(FragmentIndexPostings, VotesEqualSharedPeakCountExactly) {
  const Workload& w = workload();
  const SearchConfig config = open_config();
  const SearchEngine engine(config);
  const CandidateIndex index = CandidateIndex::build(w.db, config);
  const FragmentIndex fragment =
      FragmentIndex::build(w.db, index, config.bin_width);
  ASSERT_EQ(fragment.view().candidate_count, index.size());
  const PreparedQueries prepared = engine.prepare(
      std::span<const Spectrum>(w.queries.data(), w.queries.size()));

  for (const std::size_t q : {std::size_t{0}, std::size_t{5}}) {
    const QueryContext& context = prepared.contexts[q];
    // Accumulate votes the way the source does: walk the query's occupied
    // bins, bump every posted ordinal (with multiplicity).
    std::vector<std::uint32_t> votes(index.size(), 0);
    for (const std::uint32_t bin : occupied_bins(context.binned()))
    {
      const wire::UnalignedSpan<std::uint32_t> postings =
          fragment.view().postings(bin);
      for (std::size_t i = 0; i < postings.size(); ++i) ++votes[postings[i]];
    }
    // Every candidate's vote count must equal the matched-ion count the
    // exhaustive source (and the prefilter, and kSharedPeak scoring)
    // computes from the candidate's freshly built ladder.
    for (std::size_t ordinal = 0; ordinal < index.size(); ++ordinal) {
      const IndexedCandidate& entry = index.entries()[ordinal];
      const Protein& protein = w.db.proteins[entry.protein];
      const std::string_view peptide =
          std::string_view(protein.residues).substr(entry.offset,
                                                    entry.length);
      EXPECT_EQ(votes[ordinal],
                shared_peak_count(context.binned(), peptide))
          << "q" << q << " ordinal " << ordinal << " peptide " << peptide;
    }
  }
}

TEST(FragmentIndexPostings, PostingListsAreOrdinalAscending) {
  const Workload& w = workload();
  const SearchConfig config = open_config();
  const CandidateIndex index = CandidateIndex::build(w.db, config);
  const FragmentIndex fragment =
      FragmentIndex::build(w.db, index, config.bin_width);
  const FragmentView& view = fragment.view();
  std::size_t walked = 0;
  for (std::uint32_t bin = 0; bin < view.bin_count(); ++bin) {
    const wire::UnalignedSpan<std::uint32_t> postings = view.postings(bin);
    for (std::size_t i = 0; i < postings.size(); ++i) {
      ASSERT_LT(postings[i], index.size()) << "bin " << bin;
      if (i > 0) {
        ASSERT_GE(postings[i], postings[i - 1]) << "bin " << bin;
      }
    }
    walked += postings.size();
  }
  EXPECT_EQ(walked, fragment.posting_count());
  EXPECT_GT(walked, index.size());  // every candidate posts several ions
}

// ---------- the indexed source's forward walk vs a brute-force vote ----------

// FragmentIndexCandidateSource walks each posting list forward with per-bin
// cursors over one ascending run of windows, counting into a dense window.
// Every step of such a run is compared with a vote over the full posting
// lists: the survivors in order, at several gates, and the postings
// counted. A second source starts halfway, as a kernel_threads block does.
TEST(FragmentIndexSource, CollectMatchesBruteForce) {
  const Workload& w = workload();
  const SearchConfig config = open_config();
  const SearchEngine engine(config);
  const CandidateIndex index = CandidateIndex::build(w.db, config);
  const FragmentIndex fragment =
      FragmentIndex::build(w.db, index, config.bin_width);
  const FragmentView& view = fragment.view();
  const PreparedQueries prepared = engine.prepare(
      std::span<const Spectrum>(w.queries.data(), w.queries.size()));
  ASSERT_EQ(prepared.occupied.size(), prepared.size());
  const auto n = static_cast<std::uint32_t>(index.size());
  ASSERT_GT(n, 64u);

  // Ascending windows: neither end ever decreases. Empty windows
  // interleave, windows repeat (repeated masses), the run touches ordinal 0
  // and the last ordinal, one window holds one candidate, and the windows
  // after an empty one start past the previous window's end (the cursors
  // jump).
  std::vector<std::pair<std::uint32_t, std::uint32_t>> windows = {
      {0, 0}, {0, 1}, {0, 1}, {0, 9}, {0, 9}, {2, 9}, {9, 9}};
  const auto add = [&windows](std::uint32_t lo, std::uint32_t hi) {
    lo = std::max(lo, windows.back().first);
    windows.emplace_back(lo, std::max({hi, lo, windows.back().second}));
  };
  for (std::uint32_t lo = 9; lo + 80 < n; lo += 1 + lo % 23) {
    add(lo, lo + lo % 41);
    if (lo % 3 == 0) windows.push_back(windows.back());
    if (lo % 5 == 0) {
      const std::uint32_t end = windows.back().second;
      add(end, end);
      if (lo % 2 == 0) add(end, end);  // a repeated empty window
    }
  }
  add(n - 30, n);
  add(n - 1, n);
  add(n - 1, n);
  add(n, n);
  for (std::size_t k = 1; k < windows.size(); ++k) {
    ASSERT_LE(windows[k - 1].first, windows[k].first) << k;
    ASSERT_LE(windows[k - 1].second, windows[k].second) << k;
  }

  // Each step's occupied bins: a query's own list, and on every third step
  // also bins at and past bin_count(), which the index does not hold.
  std::vector<std::vector<std::uint32_t>> bins(windows.size());
  for (std::size_t k = 0; k < windows.size(); ++k) {
    bins[k] = prepared.occupied[k % prepared.size()];
    if (k % 3 == 0)
      for (const std::uint32_t past : {0u, 1u, 57u})
        bins[k].push_back(view.bin_count() + past);
  }

  // The brute-force vote of step k: every posting of every listed bin,
  // counted when its ordinal lies in the window.
  std::uint32_t max_votes = 0;
  std::vector<std::vector<std::uint32_t>> votes(windows.size());
  std::vector<std::uint64_t> in_window(windows.size(), 0);
  for (std::size_t k = 0; k < windows.size(); ++k) {
    const auto [lo, hi] = windows[k];
    votes[k].assign(hi - lo, 0);
    for (const std::uint32_t bin : bins[k]) {
      const wire::UnalignedSpan<std::uint32_t> list = view.postings(bin);
      for (std::size_t i = 0; i < list.size(); ++i) {
        if (list[i] < lo || list[i] >= hi) continue;
        ++votes[k][list[i] - lo];
        ++in_window[k];
      }
    }
    for (const std::uint32_t v : votes[k]) max_votes = std::max(max_votes, v);
  }
  ASSERT_GE(max_votes, 4u);

  const QueryContext& context = prepared.contexts.front();
  for (const std::size_t gate : {std::size_t{1}, std::size_t{4},
                                 std::size_t{max_votes} + 1}) {
    std::size_t survivors_seen = 0;
    FragmentIndexCandidateSource whole(view, gate);
    FragmentIndexCandidateSource second_half(view, gate);
    for (const std::size_t first : {std::size_t{0}, windows.size() / 2}) {
      FragmentIndexCandidateSource& source = first == 0 ? whole : second_half;
      for (std::size_t k = first; k < windows.size(); ++k) {
        const auto [lo, hi] = windows[k];
        std::vector<std::uint32_t> want;
        for (std::uint32_t c = lo; c < hi; ++c)
          if (votes[k][c - lo] >= gate) want.push_back(c);
        std::vector<std::uint32_t> got = {7};  // collect clears it first
        ShardSearchStats stats;
        source.collect(context, bins[k], lo, hi, got, stats);
        ASSERT_EQ(got, want) << "gate " << gate << " first " << first
                             << " step " << k << " [" << lo << ", " << hi
                             << ")";
        ASSERT_EQ(stats.postings_scanned, in_window[k])
            << "gate " << gate << " first " << first << " step " << k;
        survivors_seen += want.size();
      }
    }
    if (gate <= 4) {
      EXPECT_GT(survivors_seen, 0u) << "gate " << gate;
    }
    // A window below the last one is refused, not walked backwards.
    std::vector<std::uint32_t> out;
    ShardSearchStats stats;
    EXPECT_THROW(whole.collect(context, bins[0], 0, 1, out, stats),
                 InvalidArgument);
  }
}

// A FragmentIndex owns its record and the view of it. Moving one hands both
// over together: the moved-to index views its own bytes, and the
// moved-from one is empty. Copying is not offered, so no copy can view
// another object's bytes.
TEST(FragmentIndex, MovedIndexViewsItsOwnBytes) {
  static_assert(!std::is_copy_constructible_v<FragmentIndex>);
  static_assert(!std::is_copy_assignable_v<FragmentIndex>);
  const Workload& w = workload();
  const SearchConfig config = open_config();
  const CandidateIndex index = CandidateIndex::build(w.db, config);
  const auto views_own_bytes = [](const FragmentIndex& fragment) {
    const std::span<const char> bytes = fragment.bytes();
    const wire::UnalignedSpan<std::uint32_t>& ordinals =
        fragment.view().ordinals;
    return ordinals.data() >= bytes.data() &&
           ordinals.data() + ordinals.size() * sizeof(std::uint32_t) <=
               bytes.data() + bytes.size();
  };
  FragmentIndex built = FragmentIndex::build(w.db, index, config.bin_width);
  const std::size_t postings = built.posting_count();
  ASSERT_GT(postings, 0u);
  ASSERT_TRUE(views_own_bytes(built));

  FragmentIndex constructed(std::move(built));
  EXPECT_TRUE(views_own_bytes(constructed));
  EXPECT_EQ(constructed.posting_count(), postings);
  EXPECT_TRUE(built.bytes().empty());
  EXPECT_EQ(built.posting_count(), 0u);

  std::vector<FragmentIndex> slots(2);
  slots[0] = std::move(constructed);
  slots[1] = FragmentIndex::build(w.db, index, config.bin_width * 2.0);
  EXPECT_TRUE(views_own_bytes(slots[0]));
  EXPECT_TRUE(views_own_bytes(slots[1]));
  EXPECT_EQ(slots[0].posting_count(), postings);
  EXPECT_TRUE(constructed.bytes().empty());
  EXPECT_EQ(constructed.posting_count(), 0u);
  slots[0] = std::move(slots[1]);  // the old record is freed, not viewed
  EXPECT_TRUE(views_own_bytes(slots[0]));
  EXPECT_EQ(slots[0].view().params.bin_width, config.bin_width * 2.0);

  // Every posting still decodes from the bytes it lies in.
  wire::Reader reader(slots[0].bytes().data(), slots[0].bytes().size());
  EXPECT_EQ(get_fragment_view(reader), slots[0].view());
}

// ---------- wire format: round-trip, corruption, legacy fallback ----------

TEST(FragmentIndexWire, RoundTripsThroughWriterAndPackImage) {
  const Workload& w = workload();
  const SearchConfig config = open_config();
  const CandidateIndex index = CandidateIndex::build(w.db, config);
  const FragmentIndex fragment =
      FragmentIndex::build(w.db, index, config.bin_width);

  // The streaming writer lays out the record the index owns, byte for
  // byte, and the decoder views it back unchanged.
  wire::Writer writer;
  EXPECT_EQ(put_fragment_index(writer, protein_views(w.db), index.entries(),
                               index.params(), config.bin_width),
            fragment.posting_count());
  EXPECT_TRUE(std::ranges::equal(writer.bytes(), fragment.bytes()));
  wire::Reader reader(writer.bytes());
  EXPECT_TRUE(peek_fragment_index(reader));
  EXPECT_EQ(get_fragment_view(reader), fragment.view());
  EXPECT_TRUE(reader.exhausted());

  // The shard image: trailer validated intact behind the index.
  const std::vector<char> image =
      pack_shard(w.db, index, config.bin_width).bytes;
  const ShardView shard = unpack_shard(image);
  ASSERT_TRUE(shard.fragment.has_value());
  EXPECT_EQ(*shard.fragment, fragment.view());
}

TEST(FragmentIndexWire, RejectsCorruptedRecords) {
  const Workload& w = workload();
  const SearchConfig config = open_config();
  const CandidateIndex index = CandidateIndex::build(w.db, config);
  const FragmentIndex fragment =
      FragmentIndex::build(w.db, index, config.bin_width);
  const std::vector<char> good(fragment.bytes().begin(),
                               fragment.bytes().end());

  {  // flipped magic: peek says "no record", a forced get throws
    std::vector<char> bytes = good;
    bytes[0] ^= 0x1;
    wire::Reader peeker(bytes);
    EXPECT_FALSE(peek_fragment_index(peeker));
    wire::Reader reader(bytes);
    EXPECT_THROW(get_fragment_view(reader), IoError);
  }
  {  // unsupported version (u32 right after the 8-byte magic)
    std::vector<char> bytes = good;
    bytes[8] = 0x7f;
    wire::Reader reader(bytes);
    EXPECT_THROW(get_fragment_view(reader), IoError);
  }
  // Truncation anywhere in the payload must throw, never misparse: the
  // record carries untrusted sizes, so every slice is validated against
  // the remaining payload.
  for (const std::size_t keep :
       {std::size_t{12}, good.size() / 2, good.size() - 1}) {
    std::vector<char> bytes(good.begin(),
                            good.begin() + static_cast<std::ptrdiff_t>(keep));
    wire::Reader reader(bytes);
    EXPECT_THROW(get_fragment_view(reader), IoError) << "keep=" << keep;
  }
}

/// The fields of a hand-built fragment-index record, after its header.
struct CsrRecord {
  double bin_width = 1.0;
  std::uint64_t candidates = 3;
  std::uint64_t bins = 2;
  std::uint64_t posting_count = 3;
  std::vector<std::uint32_t> counts = {1, 2};
  std::vector<std::uint32_t> ordinals = {2, 0, 1};
};

std::vector<char> encode(const CsrRecord& record) {
  // Magic and version exactly as put_fragment_index writes them.
  const FragmentIndex empty = FragmentIndex::build({}, {}, {}, 1.0);
  wire::Reader header_reader(empty.bytes().data(), empty.bytes().size());
  wire::Writer writer;
  writer.put_u64(header_reader.get_u64());
  writer.put_u32(header_reader.get_u32());
  const CandidateIndexParams params;
  writer.put_u8(static_cast<std::uint8_t>(params.mode));
  writer.put_u32(params.min_length);
  writer.put_u32(params.max_length);
  writer.put_u32(params.missed_cleavages);
  writer.put_double(record.bin_width);
  writer.put_u64(record.candidates);
  writer.put_u64(record.bins);
  writer.put_u64(record.posting_count);
  for (const std::uint32_t count : record.counts) writer.put_u32(count);
  for (const std::uint32_t ordinal : record.ordinals) writer.put_u32(ordinal);
  return writer.take();
}

// One hand-built record per CSR check of the decoder: each violates exactly
// that check and must be rejected with IoError.
TEST(FragmentIndexWire, RejectsBrokenCsrRecords) {
  {
    const std::vector<char> bytes = encode(CsrRecord{});
    wire::Reader reader(bytes);
    const FragmentView decoded = get_fragment_view(reader);
    EXPECT_EQ(decoded.bin_count(), 2u);
    EXPECT_EQ(decoded.posting_count(), 3u);
  }
  const auto rejects = [](const CsrRecord& record, const std::string& label) {
    const std::vector<char> bytes = encode(record);
    wire::Reader reader(bytes);
    EXPECT_THROW(get_fragment_view(reader), IoError) << label;
  };
  for (const double width : {0.0, -1.0,
                             std::numeric_limits<double>::quiet_NaN(),
                             std::numeric_limits<double>::infinity()}) {
    CsrRecord record;
    record.bin_width = width;
    rejects(record, "bin width " + std::to_string(width));
  }
  {  // a bin count no payload could hold, beyond any vector's max_size
    CsrRecord record;
    record.bins = std::uint64_t{1} << 62;
    rejects(record, "bin count beyond payload");
  }
  {  // per-bin counts that sum to the claimed posting count, with none of
     // the postings present
    CsrRecord record;
    record.bins = 64;
    record.counts.assign(64, std::numeric_limits<std::uint32_t>::max());
    record.posting_count =
        64 * std::uint64_t{std::numeric_limits<std::uint32_t>::max()};
    record.ordinals.clear();
    rejects(record, "posting count beyond payload");
  }
  {
    CsrRecord record;
    record.counts = {1, 1};
    rejects(record, "per-bin counts not summing to the posting count");
  }
  {
    CsrRecord record;
    record.bins = 0;
    record.counts.clear();
    rejects(record, "postings without bins");
  }
  {
    CsrRecord record;
    record.ordinals = {3, 0, 1};
    rejects(record, "ordinal equal to the candidate count");
  }
  const std::vector<std::vector<std::uint32_t>> unordered = {{2, 1, 0},
                                                             {2, 1, 1}};
  for (const std::vector<std::uint32_t>& ordinals : unordered) {
    CsrRecord record;
    record.ordinals = ordinals;
    rejects(record, "bin postings not strictly ascending");
  }
}

TEST(FragmentIndexWire, ImageWithoutFragmentFallsBackToExhaustiveSearch) {
  const Workload& w = workload();
  SearchConfig config = open_config();
  const CandidateIndex index = CandidateIndex::build(w.db, config);

  // An image packed without a fragment index has no trailer at all.
  const std::vector<char> image = pack_shard(w.db, index);
  const ShardView bare = unpack_shard(image);
  EXPECT_FALSE(bare.fragment.has_value());

  // kAuto with no fragment index silently enumerates exhaustively and
  // still lands on the oracle's hits.
  const KernelRun oracle = run_reference(config);
  config.candidate_source = CandidateSourceKind::kAuto;
  const KernelRun fallback = run_view(config, bare);
  expect_hits_identical(fallback.hits, oracle.hits, "no-fragment fallback");
  EXPECT_EQ(fallback.stats.postings_scanned, 0u);
}

TEST(FragmentIndexWire, EngineRejectsMismatchedIndexParams) {
  const Workload& w = workload();
  SearchConfig config = open_config();
  config.candidate_source = CandidateSourceKind::kFragmentIndex;
  const CandidateIndex index = CandidateIndex::build(w.db, config);
  // Built on a different bin grid: a different grid is a different vote
  // gate, so the engine must refuse it rather than silently change hits.
  const FragmentIndex wrong_grid =
      FragmentIndex::build(w.db, index, config.bin_width * 2.0);
  EXPECT_THROW(run_shard(config, &index, &wrong_grid), InvalidArgument);
}

// ---------- determinism: threads, faults, and the parallel driver ----------

TEST(OpenSearchDeterminism, KernelThreadCountIsInvisible) {
  const Workload& w = workload();
  SearchConfig config = open_config();
  config.candidate_source = CandidateSourceKind::kFragmentIndex;
  const CandidateIndex index = CandidateIndex::build(w.db, config);
  const FragmentIndex fragment =
      FragmentIndex::build(w.db, index, config.bin_width);

  config.kernel_threads = 1;
  const KernelRun serial = run_shard(config, &index, &fragment);
  for (const std::size_t threads : {std::size_t{2}, std::size_t{5}}) {
    config.kernel_threads = threads;
    const KernelRun fanned = run_shard(config, &index, &fragment);
    const std::string label = "threads=" + std::to_string(threads);
    expect_hits_identical(fanned.hits, serial.hits, label);
    EXPECT_EQ(fanned.stats.candidates_evaluated,
              serial.stats.candidates_evaluated)
        << label;
    EXPECT_EQ(fanned.stats.candidates_prefiltered,
              serial.stats.candidates_prefiltered)
        << label;
    EXPECT_EQ(fanned.stats.ions_built, serial.stats.ions_built) << label;
    EXPECT_EQ(fanned.stats.postings_scanned, serial.stats.postings_scanned)
        << label;
    EXPECT_EQ(fanned.per_query, serial.per_query) << label;
  }
}

TEST(OpenSearchDeterminism, ParallelOpenSearchMatchesSerialUnderFaults) {
  const Workload& w = workload();
  SearchConfig config = open_config();
  config.ptms = ptm_set(1);
  config.max_ptm_mods = 1;
  const QueryHits serial = SearchEngine(config).search(w.db, w.queries);

  for (const bool crash : {false, true}) {
    sim::FaultModel faults;
    if (crash) faults.crash(1, 1);
    for (const CandidateSourceKind source :
         {CandidateSourceKind::kMassWindow,
          CandidateSourceKind::kFragmentIndex}) {
      SearchConfig run_config = config;
      run_config.candidate_source = source;
      const sim::Runtime runtime(4, {}, {}, faults);
      const ParallelRunResult result = run_algorithm_a(
          runtime, w.image, w.queries, run_config, AlgorithmAOptions{});
      const std::string label =
          std::string(crash ? "crash" : "clean") + " source=" +
          std::to_string(static_cast<int>(source));
      expect_hits_identical(result.hits, serial, label);
      if (source == CandidateSourceKind::kFragmentIndex) {
        EXPECT_GT(result.report.sum_counter("postings"), 0u) << label;
      } else {
        EXPECT_EQ(result.report.sum_counter("postings"), 0u) << label;
      }
    }
  }
}

TEST(OpenSearchDeterminism, ParallelRunsAreByteIdenticalAcrossRepeats) {
  const Workload& w = workload();
  SearchConfig config = open_config();
  config.candidate_source = CandidateSourceKind::kFragmentIndex;
  auto run_once = [&] {
    const sim::Runtime runtime(4);
    return run_algorithm_a(runtime, w.image, w.queries, config,
                           AlgorithmAOptions{});
  };
  const ParallelRunResult first = run_once();
  const ParallelRunResult second = run_once();
  expect_hits_identical(second.hits, first.hits, "repeat");
  EXPECT_EQ(second.report.to_string(), first.report.to_string());
}

// ---------- the serving ring in open mode ----------

TEST(OpenSearchServe, RoutedServiceMatchesSerialOpenHits) {
  const Workload& w = workload();
  SearchConfig config = open_config();
  const QueryHits serial = SearchEngine(config).search(w.db, w.queries);

  for (const bool routed : {true, false}) {
    serve::ServiceOptions options;
    options.arrivals.kind = serve::ArrivalKind::kPoisson;
    options.arrivals.rate_qps = 400.0;
    options.arrivals.seed = 77;
    options.batch.max_batch = 6;
    options.batch.max_wait_s = 0.02;
    options.admission.max_outstanding = 256;
    options.mass_routing = routed;

    const sim::Runtime runtime(4);
    const serve::ServiceResult result =
        serve::run_service(runtime, w.image, w.queries, config, options);
    const std::string label = routed ? "routed" : "unrouted";
    EXPECT_EQ(result.completed, w.queries.size()) << label;
    EXPECT_EQ(result.shed, 0u) << label;
    expect_hits_identical(result.hits, serial, label);
  }
}

}  // namespace
}  // namespace msp
