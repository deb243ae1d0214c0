#include "UncheckedWireReadCheck.h"

#include "clang/AST/ASTContext.h"
#include "clang/ASTMatchers/ASTMatchFinder.h"

using namespace clang::ast_matchers;

namespace clang::tidy::mspar {

UncheckedWireReadCheck::UncheckedWireReadCheck(StringRef Name,
                                               ClangTidyContext *Context)
    : ClangTidyCheck(Name, Context),
      Paths_(Options.get("Paths", "(^|/)src/(io|core)/")) {}

void UncheckedWireReadCheck::storeOptions(ClangTidyOptions::OptionMap &Opts) {
  Options.store(Opts, "Paths", Paths_.pattern());
}

void UncheckedWireReadCheck::registerMatchers(MatchFinder *Finder) {
  // "Byte-ish": the types a raw payload legitimately lives in. A pointer
  // to anything else on the *destination* side of a copy (or cast) means
  // typed state is being materialized from raw bytes.
  const auto ByteQual = qualType(
      anyOf(isAnyCharacter(),
            hasUnqualifiedDesugaredType(anyOf(
                voidType(), enumType(hasDeclaration(
                                namedDecl(hasName("::std::byte"))))))));
  const auto BytePtr =
      qualType(hasUnqualifiedDesugaredType(pointerType(pointee(ByteQual))));
  const auto NonBytePtr = qualType(
      hasUnqualifiedDesugaredType(pointerType(pointee(unless(ByteQual)))));
  const auto InWireNamespace =
      hasAncestor(functionDecl(hasAncestor(namespaceDecl(hasName("wire")))));

  Finder->addMatcher(
      callExpr(callee(functionDecl(
                   hasAnyName("::memcpy", "::std::memcpy", "::memmove",
                              "::std::memmove", "::__builtin_memcpy"))),
               hasArgument(0, expr(hasType(NonBytePtr))),
               hasArgument(1, expr(hasType(BytePtr))),
               unless(InWireNamespace))
          .bind("copy"),
      this);
  Finder->addMatcher(
      cxxReinterpretCastExpr(hasSourceExpression(hasType(BytePtr)),
                             hasDestinationType(NonBytePtr),
                             unless(InWireNamespace))
          .bind("cast"),
      this);
}

void UncheckedWireReadCheck::check(const MatchFinder::MatchResult &Result) {
  const SourceManager &SM = *Result.SourceManager;
  SourceLocation Loc;
  const char *Form = "";
  if (const auto *Copy = Result.Nodes.getNodeAs<CallExpr>("copy")) {
    Loc = Copy->getBeginLoc();
    Form = "memcpy from a raw byte buffer into typed storage";
  } else if (const auto *Cast =
                 Result.Nodes.getNodeAs<CXXReinterpretCastExpr>("cast")) {
    Loc = Cast->getBeginLoc();
    Form = "reinterpret_cast of a raw byte buffer to a typed pointer";
  }
  if (!diagnosable(SM, Loc) || !Paths_.matches(SM, Loc)) return;
  diag(Loc,
       "%0 bypasses the checked wire helpers; decode through wire::Reader / "
       "wire::get_record_header / wire::checked_array_view so truncated or "
       "corrupt payloads fail as IoError")
      << Form;
}

}  // namespace clang::tidy::mspar
