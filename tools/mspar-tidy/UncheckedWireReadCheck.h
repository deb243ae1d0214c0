// mspar-unchecked-wire-read — flag raw byte-buffer decodes that bypass the
// checked wire helpers.
//
// Every record family that crosses the simulated wire (pack images,
// "MSPARHST"/"MSPARFRG"/"MSPARIDX" trailers, candidate-record bands) is
// decoded through msp::wire — the bounds-checked Reader, the
// get_record_header validators, and checked_array_view — so corruption
// fails loudly as IoError instead of reading past a buffer or misparsing
// silently. A hand-rolled `memcpy(&record, bytes.data() + off, n)` or a
// `reinterpret_cast<const Record*>(bytes.data())` sidesteps all of that.
// This check flags, in decode direction only:
//
//   * memcpy whose destination is a pointer to a non-byte object type and
//     whose source is a byte pointer (char/unsigned char/std::byte/void),
//   * reinterpret_cast from a byte pointer to a non-byte object pointer.
//
// The encode direction (object -> bytes, e.g. exposing a record array as a
// char span for an RMA window) stays legal, as does byte->byte copying.
// Code lexically inside `namespace wire` is exempt — that is where the
// checked decodes live (the Reader's scalar memcpy and checked_array_view's
// one reinterpret_cast). Scope: paths matching `Paths` (default src/io/
// and src/core/, the I/O layer plus pack/unpack + transport decode code).
#pragma once

#include "MsparTidyUtil.h"
#include "clang-tidy/ClangTidyCheck.h"

namespace clang::tidy::mspar {

class UncheckedWireReadCheck : public ClangTidyCheck {
 public:
  UncheckedWireReadCheck(StringRef Name, ClangTidyContext *Context);
  void registerMatchers(ast_matchers::MatchFinder *Finder) override;
  void check(const ast_matchers::MatchFinder::MatchResult &Result) override;
  void storeOptions(ClangTidyOptions::OptionMap &Opts) override;

 private:
  PathFilter Paths_;
};

}  // namespace clang::tidy::mspar
