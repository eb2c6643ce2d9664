#include "sqmlint/ir.h"

#include <set>

#include "sqmlint/checker.h"

namespace sqmlint {
namespace {

bool IsPunct(const Token& t, const char* text) {
  return t.kind == TokenKind::kPunct && t.text == text;
}
bool IsIdent(const Token& t) { return t.kind == TokenKind::kIdentifier; }

const std::set<std::string>& ControlKeywords() {
  static const std::set<std::string> kWords = {
      "if",     "for",    "while",  "switch",   "catch",  "return",
      "sizeof", "co_await", "co_return", "co_yield", "throw", "new",
      "delete", "static_assert", "alignof",  "decltype", "typeid",
      "else",   "do",     "case",   "default",  "goto"};
  return kWords;
}

/// Words that can trail a parameter list before the body brace.
const std::set<std::string>& SignatureTrailerWords() {
  static const std::set<std::string> kWords = {
      "const",   "noexcept", "override", "final",
      "mutable", "volatile", "try",      "requires"};
  return kWords;
}

}  // namespace

size_t SkipParenGroup(const std::vector<Token>& toks, size_t open) {
  int depth = 0;
  for (size_t i = open; i < toks.size(); ++i) {
    if (IsPunct(toks[i], "(")) ++depth;
    if (IsPunct(toks[i], ")")) {
      --depth;
      if (depth == 0) return i + 1;
    }
  }
  return toks.size();
}

std::vector<TokenRange> SplitTopLevelArgs(const std::vector<Token>& toks,
                                          TokenRange inside) {
  std::vector<TokenRange> args;
  if (inside.empty()) return args;
  int paren = 0, bracket = 0, brace = 0, angle = 0;
  size_t start = inside.begin;
  for (size_t i = inside.begin; i < inside.end; ++i) {
    const Token& t = toks[i];
    if (t.kind == TokenKind::kPunct) {
      if (t.text == "(") ++paren;
      if (t.text == ")") --paren;
      if (t.text == "[") ++bracket;
      if (t.text == "]") --bracket;
      if (t.text == "{") ++brace;
      if (t.text == "}") --brace;
      // Heuristic template depth: '<' only counts after an identifier
      // (Foo<...>), so comparisons like `a < b` do not open a level.
      if (t.text == "<" && i > inside.begin && IsIdent(toks[i - 1])) ++angle;
      if (t.text == ">" && angle > 0) --angle;
      if (t.text == ">>" && angle > 0) angle = angle >= 2 ? angle - 2 : 0;
      if (t.text == "," && paren == 0 && bracket == 0 && brace == 0 &&
          angle == 0) {
        args.push_back(TokenRange{start, i});
        start = i + 1;
        continue;
      }
    }
  }
  args.push_back(TokenRange{start, inside.end});
  return args;
}

namespace {

/// Extracts the parameter name of one declaration range: the last
/// identifier that is not part of a template argument and is followed by
/// nothing, '=', or '[' — `const std::vector<Field::Element>& shares`
/// yields "shares", `size_t n = 4` yields "n", an unnamed `Element*`
/// yields "" when the only identifiers look like the type.
std::string ParamName(const std::vector<Token>& toks, TokenRange range) {
  // Trim a default-value suffix.
  size_t end = range.end;
  int depth = 0;
  for (size_t i = range.begin; i < range.end; ++i) {
    const Token& t = toks[i];
    if (t.kind != TokenKind::kPunct) continue;
    if (t.text == "(" || t.text == "[" || t.text == "{") ++depth;
    if (t.text == ")" || t.text == "]" || t.text == "}") --depth;
    if (t.text == "=" && depth == 0) {
      end = i;
      break;
    }
  }
  // Walk back over array brackets.
  while (end > range.begin && IsPunct(toks[end - 1], "]")) {
    size_t j = end - 1;
    int b = 0;
    while (j > range.begin) {
      if (IsPunct(toks[j], "]")) ++b;
      if (IsPunct(toks[j], "[")) {
        --b;
        if (b == 0) break;
      }
      --j;
    }
    end = j;
  }
  if (end == range.begin) return "";
  const Token& last = toks[end - 1];
  if (!IsIdent(last)) return "";
  // `Foo<T> x` is fine; a lone type name (`const Element*`) has its last
  // identifier directly preceded by :: (qualified type) or followed by *
  // or & — those trimmed forms end with punctuation, so the remaining
  // ambiguity (`Element` as the whole declaration) is accepted as a name:
  // a false name on an unnamed parameter is inert unless the body uses
  // the same spelling, which cannot refer to a parameter that has none.
  if (end - 1 > range.begin && IsPunct(toks[end - 2], "::")) return "";
  return last.text;
}

/// True when the identifier at `i` begins a plausible function declarator:
/// it is not a control keyword and not a call-shaped use (preceded by
/// '.', '->', template '<', etc. is handled by the caller's scan).
bool PlausibleName(const std::vector<Token>& toks, size_t i) {
  if (!IsIdent(toks[i])) return false;
  if (ControlKeywords().count(toks[i].text) > 0) return false;
  return true;
}

}  // namespace

std::vector<FunctionIR> BuildFileIR(const SourceFile& file) {
  const std::vector<Token>& toks = file.tokens;
  std::vector<FunctionIR> functions;

  // --- Pass 1: find function definitions: name '(' params ')' trailer '{'.
  for (size_t i = 0; i < toks.size(); ++i) {
    if (!PlausibleName(toks, i)) continue;
    if (i + 1 >= toks.size() || !IsPunct(toks[i + 1], "(")) continue;
    // `operator()` overloads and macro-continuation noise are skipped by
    // requiring the previous token to not be 'operator' or '#'.
    if (i > 0 && IsIdent(toks[i - 1]) &&
        (toks[i - 1].text == "operator" || toks[i - 1].text == "define")) {
      continue;
    }
    // A call used as a value (preceded by '=', '(', ',', 'return', an
    // operator...) is not a definition; definitions are preceded by a
    // type-ish token, '::', '}', ';', '{', or nothing. Cheap filter: the
    // previous token must not be a punct that implies an expression. A
    // return type closing two template levels at once ends in '>>'.
    if (i > 0 && toks[i - 1].kind == TokenKind::kPunct) {
      static const std::set<std::string> kDefPreceders = {
          "}", ";", "{", "::", "*", "&", ">", ">>"};
      if (kDefPreceders.count(toks[i - 1].text) == 0) continue;
    }
    if (i > 0 && IsIdent(toks[i - 1]) &&
        ControlKeywords().count(toks[i - 1].text) > 0) {
      continue;
    }

    const size_t params_open = i + 1;
    const size_t params_close_past = SkipParenGroup(toks, params_open);
    if (params_close_past >= toks.size()) continue;

    // Scan the signature trailer for the body '{'. Constructor initializer
    // lists contain parenthesized and braced initializers; follow them.
    size_t j = params_close_past;
    bool is_def = false;
    bool in_init_list = false;
    int guard = 0;
    while (j < toks.size() && guard++ < 4096) {
      const Token& t = toks[j];
      if (IsPunct(t, ";")) break;           // Declaration only.
      if (IsPunct(t, "{")) {
        if (in_init_list && j + 0 < toks.size()) {
          // A braced member initializer `field_{x}` — skip the group.
          int depth = 0;
          while (j < toks.size()) {
            if (IsPunct(toks[j], "{")) ++depth;
            if (IsPunct(toks[j], "}")) {
              --depth;
              if (depth == 0) break;
            }
            ++j;
          }
          ++j;
          // After a braced initializer, a ',' continues the list and a
          // '{' begins the body; the loop handles both.
          in_init_list = j < toks.size() && IsPunct(toks[j], ",");
          if (!in_init_list && j < toks.size() && IsPunct(toks[j], "{")) {
            is_def = true;
          }
          if (is_def) break;
          continue;
        }
        is_def = true;
        break;
      }
      if (IsPunct(t, "(")) {                 // Initializer `field_(x)`.
        j = SkipParenGroup(toks, j);
        continue;
      }
      if (IsPunct(t, ":")) {
        in_init_list = true;
        ++j;
        continue;
      }
      if (IsPunct(t, "=")) {
        // `= default` / `= delete` / `= 0`; also rejects assignments,
        // which can never precede a body brace.
        break;
      }
      if (t.kind == TokenKind::kIdentifier || t.kind == TokenKind::kPunct) {
        // const/noexcept/override, '->' trailing return types, '&&'
        // ref-qualifiers, attribute brackets, template arguments.
        if (t.kind == TokenKind::kIdentifier &&
            SignatureTrailerWords().count(t.text) == 0 && !in_init_list &&
            !(j > 0 && (IsPunct(toks[j - 1], "->") ||
                        IsPunct(toks[j - 1], "::") ||
                        IsPunct(toks[j - 1], "<") ||
                        IsPunct(toks[j - 1], ",") ||
                        IsIdent(toks[j - 1])))) {
          break;  // Two adjacent non-trailer identifiers: not a signature.
        }
        ++j;
        continue;
      }
      break;
    }
    if (!is_def || j >= toks.size() || !IsPunct(toks[j], "{")) continue;

    FunctionIR fn;
    fn.name = toks[i].text;
    fn.line = toks[i].line;
    fn.file = &file;
    if (i >= 2 && IsPunct(toks[i - 1], "::") && IsIdent(toks[i - 2])) {
      fn.owner = toks[i - 2].text;
    }
    // Parameters.
    if (params_close_past > params_open + 2) {
      const TokenRange inside{params_open + 1, params_close_past - 1};
      if (!(inside.end - inside.begin == 1 && IsIdent(toks[inside.begin]) &&
            toks[inside.begin].text == "void")) {
        for (const TokenRange& arg : SplitTopLevelArgs(toks, inside)) {
          fn.params.push_back(ParamName(toks, arg));
        }
      }
    }
    // Body extent.
    int depth = 0;
    size_t body_end = j;
    for (size_t k = j; k < toks.size(); ++k) {
      if (IsPunct(toks[k], "{")) ++depth;
      if (IsPunct(toks[k], "}")) {
        --depth;
        if (depth == 0) {
          body_end = k;
          break;
        }
      }
    }
    fn.body = TokenRange{j + 1, body_end};
    functions.push_back(std::move(fn));
    // Continue scanning from inside the body: nested definitions are not
    // recovered (lambdas fold into the enclosing function), but the next
    // top-level definition must not be skipped, so resume after '{'.
    i = j;
  }

  // Functions found inside another function's body range are artifacts of
  // the heuristic (local structs, lambdas assigned through macros): drop
  // any function whose name token lies inside a previously accepted body.
  // The scan order above already avoids most; keep it simple and cheap.

  // --- Pass 2: per function, recover assigns / calls / returns.
  for (FunctionIR& fn : functions) {
    const TokenRange body = fn.body;
    for (size_t k = body.begin; k < body.end; ++k) {
      const Token& t = toks[k];
      // return <expr> ;
      if (IsIdent(t) && t.text == "return") {
        size_t e = k + 1;
        int depth = 0;
        while (e < body.end) {
          if (IsPunct(toks[e], "(") || IsPunct(toks[e], "[") ||
              IsPunct(toks[e], "{")) {
            ++depth;
          }
          if (IsPunct(toks[e], ")") || IsPunct(toks[e], "]") ||
              IsPunct(toks[e], "}")) {
            --depth;
          }
          if (depth <= 0 && IsPunct(toks[e], ";")) break;
          ++e;
        }
        if (e > k + 1) {
          fn.assigns.push_back(Assign{"@ret", TokenRange{k + 1, e}, t.line});
        }
        continue;
      }
      // Range-for binding: for ( decl : container )
      if (IsIdent(t) && t.text == "for" && k + 1 < body.end &&
          IsPunct(toks[k + 1], "(")) {
        const size_t close_past = SkipParenGroup(toks, k + 1);
        int depth = 0;
        size_t colon = 0;
        for (size_t m = k + 1; m + 1 < close_past; ++m) {
          if (IsPunct(toks[m], "(")) ++depth;
          if (IsPunct(toks[m], ")")) --depth;
          if (depth == 1 && IsPunct(toks[m], ":") &&
              !(m > 0 && IsPunct(toks[m - 1], ":")) &&
              !(m + 1 < close_past && IsPunct(toks[m + 1], ":"))) {
            colon = m;
            break;
          }
        }
        if (colon != 0) {
          // Loop variable: last identifier before ':'.
          size_t v = colon;
          while (v > k + 2 && !IsIdent(toks[v - 1])) --v;
          if (v > k + 2 && IsIdent(toks[v - 1])) {
            fn.assigns.push_back(Assign{toks[v - 1].text,
                                        TokenRange{colon + 1, close_past - 1},
                                        toks[v - 1].line});
          }
        }
        continue;
      }
      // Assignment / declaration-with-initializer: ident [indexes] op= rhs ;
      if (t.kind == TokenKind::kPunct &&
          (t.text == "=" || t.text == "+=" || t.text == "-=" ||
           t.text == "*=" || t.text == "/=" || t.text == "%=" ||
           t.text == "|=" || t.text == "&=" || t.text == "^=")) {
        // Find the lhs identifier: either directly before, or before a
        // bracket group `x[i] = ...`, or before a member chain
        // `x.field = ...` (taint the base object conservatively).
        size_t L = k;
        while (L > body.begin && IsPunct(toks[L - 1], "]")) {
          int b = 0;
          size_t m = L - 1;
          while (m > body.begin) {
            if (IsPunct(toks[m], "]")) ++b;
            if (IsPunct(toks[m], "[")) {
              --b;
              if (b == 0) break;
            }
            --m;
          }
          L = m;
        }
        std::string lhs;
        if (L > body.begin && IsIdent(toks[L - 1])) {
          lhs = toks[L - 1].text;
          // Member chain: walk to the base object.
          size_t m = L - 1;
          while (m >= 2 && (IsPunct(toks[m - 1], ".") ||
                            IsPunct(toks[m - 1], "->")) &&
                 IsIdent(toks[m - 2])) {
            m -= 2;
            lhs = toks[m].text;
          }
        }
        if (lhs.empty()) continue;
        size_t e = k + 1;
        int depth = 0;
        while (e < body.end) {
          if (IsPunct(toks[e], "(") || IsPunct(toks[e], "[") ||
              IsPunct(toks[e], "{")) {
            ++depth;
          }
          if (IsPunct(toks[e], ")") || IsPunct(toks[e], "]") ||
              IsPunct(toks[e], "}")) {
            --depth;
          }
          if (depth <= 0 &&
              (IsPunct(toks[e], ";") || IsPunct(toks[e], ","))) {
            break;
          }
          if (depth < 0) break;
          ++e;
        }
        if (e > k + 1) {
          fn.assigns.push_back(Assign{lhs, TokenRange{k + 1, e}, t.line});
        }
        continue;
      }
      // Call site: ident '(' ... ')', excluding control keywords and
      // definitions (we are inside a body, so every ident '(' is a call
      // or a declaration of a local; locals-with-ctor-args are rare in
      // this codebase and read as calls, which only widens analysis).
      if (IsIdent(t) && ControlKeywords().count(t.text) == 0 &&
          k + 1 < body.end && IsPunct(toks[k + 1], "(")) {
        CallSite call;
        call.callee = t.text;
        call.line = t.line;
        call.name_token = k;
        if (k > body.begin) {
          const Token& prev = toks[k - 1];
          call.member = IsPunct(prev, ".") || IsPunct(prev, "->");
          call.scoped = IsPunct(prev, "::");
          if ((call.member || call.scoped) && k >= 2 && IsIdent(toks[k - 2])) {
            call.qualifier = toks[k - 2].text;
          }
        }
        const size_t close_past = SkipParenGroup(toks, k + 1);
        if (close_past > k + 2 && close_past <= body.end + 1) {
          const TokenRange inside{k + 2, close_past - 1};
          if (!inside.empty()) {
            for (const TokenRange& arg : SplitTopLevelArgs(toks, inside)) {
              call.args.push_back(CallArg{arg});
            }
          }
        }
        fn.calls.push_back(std::move(call));
        continue;
      }
    }
  }
  return functions;
}

}  // namespace sqmlint
