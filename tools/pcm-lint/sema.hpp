#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "lexer.hpp"
#include "lint.hpp"

// pcm::lint::sema — the per-translation-unit semantic pass.
//
// Built on the lexer's token stream, this pass recovers just enough
// structure for flow-aware rules without a real C++ front end:
//
//   - function definitions, with qualified names (`MeshRouter::route`),
//     recovered through a scope stack (namespaces, classes, blocks) plus a
//     backward walk from each `{` that understands constructor member-init
//     lists, trailing return types, and lambdas (a lambda body is attributed
//     to its enclosing function — exactly what the flow rules want);
//   - per-function call sequences: free calls, `std::`-qualified calls and
//     member calls with the receiving object's name, in source order with
//     line numbers;
//   - direct wallclock/randomness primitive uses per function, the seeds of
//     the cross-TU determinism-taint propagation (callgraph.hpp).
//
// The parser is deliberately heuristic (no libclang in the bare toolchain
// image): misclassifying an exotic construct costs at worst a missed or
// stray *lint* diagnostic, never a build break, and every rule stays
// suppressible. Preprocessor lines never reach it (the lexer skips them),
// so unbalanced braces in macros cannot derail scope matching.

namespace pcm::lint::sema {

struct CallSite {
  std::string object;     ///< receiver name for `obj.f()` / `obj->f()`; empty otherwise.
  std::string qualifier;  ///< `std` for `std::f()`; empty otherwise.
  std::string callee;     ///< simple (last) name.
  int line = 0;
};

struct FunctionDef {
  std::string qualified_name;  ///< `Class::name` when the class is known, else `name`.
  std::string simple_name;
  std::string class_name;  ///< enclosing/explicit class, empty for free functions.
  int line = 0;            ///< line of the body's opening brace.
  std::size_t body_begin = 0;  ///< token index of `{`.
  std::size_t body_end = 0;    ///< token index of the matching `}`.
  std::vector<CallSite> calls;
  bool direct_wallclock = false;  ///< body calls a host time/randomness primitive.
  int wallclock_line = 0;
  std::string wallclock_what;  ///< e.g. `time()`, `std::random_device`.
};

struct TranslationUnit {
  std::string rel_path;
  std::vector<lexer::Token> tokens;
  std::vector<FunctionDef> functions;
};

/// Parse one stripped+lexed TU into functions with call sequences.
[[nodiscard]] TranslationUnit parse(std::string rel_path,
                                    std::vector<lexer::Token> tokens);

// --- flow-aware per-TU rules ------------------------------------------------

/// span-invalidation: a span view (`messages()`, `senders()`, `receivers()`,
/// `sends_of()`, `Arena::alloc*`, or any binding declared as std::span) held
/// in a local while a mutating/canonicalising method (`add`, `clear`,
/// `reset`, `canonicalise`, `drain`) of the *same object* runs, then used.
void check_span_invalidation(const TranslationUnit& tu,
                             std::vector<Diagnostic>* out);

/// arena-escape: the result of `Arena::alloc/alloc_zeroed` stored into a
/// member (`name_`, `this->name`), a static, or through a pointer
/// (`*out = ...`, `out->field = ...`) — storage that outlives the
/// route()/reset() scope the arena contract ties span validity to.
void check_arena_escape(const TranslationUnit& tu,
                        std::vector<Diagnostic>* out);

}  // namespace pcm::lint::sema
