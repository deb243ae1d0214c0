// A shard as the search kernel reads it: borrowed, never decoded.
//
// The paper's Algorithm A gives each rank three O(N/p) buffers — D_local
// (its own shard), D_recv (the prefetch) and D_comp (the shard being
// scored) — and scores D_comp where it landed. A ShardView is that: the
// protein table as string views, the mass-sorted candidate entries and,
// when the shard ships one, the fragment-ion postings, all pointing into
// the buffer that holds them. unpack_shard (core/packdb.hpp) validates a
// shard image in place and returns its view; ShardView::of views an owned
// ProteinDatabase + CandidateIndex (+ FragmentIndex), so the one kernel
// (SearchEngine::search_shard) serves both and nothing is decoded twice.
//
// Lifetime: a view borrows. It is valid only while the buffers it points
// into are alive and unmodified — for a fetched image, until the window
// overwrites or swaps the buffer holding it (ShardWindow::settle swaps
// D_recv into D_comp, and the next prefetch refills D_recv).
#pragma once

#include <optional>
#include <span>
#include <vector>

#include "core/candidate_index.hpp"
#include "core/fragment_index.hpp"
#include "mass/peptide.hpp"

namespace msp {

struct ShardView {
  std::vector<ProteinView> proteins;  ///< borrowed strings
  CandidateIndexParams params;        ///< what the entries were built under
  MassEnvelope envelope;              ///< what the entries were clipped for
  std::span<const IndexedCandidate> entries;  ///< mass ascending
  std::optional<FragmentView> fragment;       ///< when the shard ships one

  /// View an owned shard and its indexes. The arguments must outlive the
  /// view; temporaries are rejected at compile time.
  static ShardView of(const ProteinDatabase& db, const CandidateIndex& index,
                      const FragmentIndex* fragment = nullptr) {
    ShardView view;
    view.proteins = protein_views(db);
    view.params = index.params();
    view.envelope = index.envelope();
    view.entries = index.entries();
    if (fragment != nullptr) view.fragment = fragment->view();
    return view;
  }
  static ShardView of(ProteinDatabase&&, const CandidateIndex&,
                      const FragmentIndex* = nullptr) = delete;
  static ShardView of(const ProteinDatabase&, CandidateIndex&&,
                      const FragmentIndex* = nullptr) = delete;
};

}  // namespace msp
