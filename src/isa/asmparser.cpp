#include "isa/asmparser.h"

#include <algorithm>
#include <cctype>
#include <optional>
#include <vector>

#include "isa/assembler.h"

namespace detstl::isa {

namespace {

/// Split one logical line into comma/whitespace-separated operand tokens,
/// keeping "off(base)" forms intact.
std::vector<std::string> tokenize(std::string_view line) {
  std::vector<std::string> out;
  std::string cur;
  for (char ch : line) {
    if (ch == ',' || std::isspace(static_cast<unsigned char>(ch))) {
      if (!cur.empty()) {
        out.push_back(cur);
        cur.clear();
      }
    } else {
      cur.push_back(ch);
    }
  }
  if (!cur.empty()) out.push_back(cur);
  return out;
}

class Parser {
 public:
  /// Standalone mode: owns the assembler. Fragment mode: emits into an
  /// external assembler with every label prefixed.
  Parser(std::string_view source, u32 origin)
      : src_(source), owned_(std::in_place, origin), a_(&*owned_) {}
  Parser(std::string_view source, Assembler& into, std::string prefix)
      : src_(source), a_(&into), prefix_(std::move(prefix)), fragment_(true) {}

  void parse_all() {
    unsigned lineno = 0;
    std::size_t pos = 0;
    while (pos <= src_.size()) {
      const std::size_t nl = src_.find('\n', pos);
      std::string_view line = src_.substr(
          pos, nl == std::string_view::npos ? std::string_view::npos : nl - pos);
      ++lineno;
      parse_line(line, lineno);
      if (nl == std::string_view::npos) break;
      pos = nl + 1;
    }
  }

  Program run() {
    parse_all();
    try {
      return a_->assemble();
    } catch (const AsmError& e) {
      throw ParseError(0, e.what());
    }
  }

 private:
  void parse_line(std::string_view line, unsigned ln) {
    // Strip comments.
    for (const char c : {';', '#'}) {
      const auto p = line.find(c);
      if (p != std::string_view::npos) line = line.substr(0, p);
    }
    auto toks = tokenize(line);
    if (toks.empty()) return;

    // Leading labels (possibly several on one line).
    while (!toks.empty() && toks.front().back() == ':') {
      const std::string name = toks.front().substr(0, toks.front().size() - 1);
      if (name.empty()) throw ParseError(ln, "empty label");
      guarded(ln, [&] { a_->label(prefix_ + name); });
      toks.erase(toks.begin());
    }
    if (toks.empty()) return;

    const std::string op = lower(toks[0]);
    std::vector<std::string> args(toks.begin() + 1, toks.end());
    if (op[0] == '.') {
      if (fragment_ && (op == ".org" || op == ".entry"))
        throw ParseError(ln, "'" + op + "' not allowed in a fragment");
      guarded(ln, [&] { directive(op, args, ln); });
    } else {
      guarded(ln, [&] { instruction(op, args, ln); });
    }
  }

  static std::string lower(std::string s) {
    for (char& c : s) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    return s;
  }

  template <typename F>
  void guarded(unsigned ln, F&& f) {
    try {
      f();
    } catch (const AsmError& e) {
      throw ParseError(ln, e.what());
    }
  }

  Reg reg(const std::string& t, unsigned ln) const {
    if (t.size() < 2 || (t[0] != 'r' && t[0] != 'R'))
      throw ParseError(ln, "expected register, got '" + t + "'");
    char* end = nullptr;
    const long v = std::strtol(t.c_str() + 1, &end, 10);
    if (*end != '\0' || v < 0 || v >= static_cast<long>(kNumRegs))
      throw ParseError(ln, "bad register '" + t + "'");
    return static_cast<Reg>(v);
  }

  /// A number in [lo, hi]: decimal, 0x hex or 0 octal.
  i64 num(const std::string& t, i64 lo, i64 hi, unsigned ln) const {
    char* end = nullptr;
    const long long v = std::strtoll(t.c_str(), &end, 0);
    if (end == t.c_str() || *end != '\0')
      throw ParseError(ln, "expected immediate, got '" + t + "'");
    if (v < lo || v > hi)
      throw ParseError(ln, "operand '" + t + "' out of range [" + std::to_string(lo) +
                               ", " + std::to_string(hi) + "]");
    return v;
  }

  static constexpr i64 kMaxU32 = (i64{1} << 32) - 1;

  /// A 32-bit operand: [-2^31, 2^32), read modulo 2^32.
  u32 imm32(const std::string& t, unsigned ln) const {
    return static_cast<u32>(num(t, -(i64{1} << 31), kMaxU32, ln));
  }
  /// A location or size (.org, .align, .space).
  u32 size32(const std::string& t, unsigned ln) const {
    return static_cast<u32>(num(t, 0, kMaxU32, ln));
  }
  Csr csr(const std::string& t, unsigned ln) const {
    return static_cast<Csr>(num(t, 0, 0xffff, ln));
  }

  bool looks_numeric(const std::string& t) const {
    return !t.empty() && (std::isdigit(static_cast<unsigned char>(t[0])) ||
                          t[0] == '-' || t[0] == '+');
  }

  /// "off(base)" -> (offset, base register).
  std::pair<i32, Reg> mem_operand(const std::string& t, unsigned ln) const {
    const auto open = t.find('(');
    const auto close = t.find(')');
    if (open == std::string::npos || close == std::string::npos || close < open)
      throw ParseError(ln, "expected offset(base), got '" + t + "'");
    const std::string off = t.substr(0, open);
    const std::string base = t.substr(open + 1, close - open - 1);
    return {static_cast<i32>(off.empty() ? 0 : imm32(off, ln)), reg(base, ln)};
  }

  void expect_argc(const std::vector<std::string>& args, std::size_t n, unsigned ln) {
    if (args.size() != n)
      throw ParseError(ln, "expected " + std::to_string(n) + " operands, got " +
                               std::to_string(args.size()));
  }

  void directive(const std::string& op, const std::vector<std::string>& args,
                 unsigned ln) {
    expect_argc(args, 1, ln);
    if (op == ".org") {
      a_->org(size32(args[0], ln));
    } else if (op == ".align") {
      a_->align(size32(args[0], ln));
    } else if (op == ".word") {
      if (looks_numeric(args[0])) {
        a_->word(imm32(args[0], ln));
      } else {
        a_->word_label(prefix_ + args[0]);
      }
    } else if (op == ".space") {
      a_->space(size32(args[0], ln));
    } else if (op == ".entry") {
      a_->set_entry(prefix_ + args[0]);
    } else {
      throw ParseError(ln, "unknown directive '" + op + "'");
    }
  }

  /// Operand count of each format; `jal target` may also drop its rd.
  static std::size_t operand_count(Format f) {
    switch (f) {
      case Format::kNone:
        return 0;
      case Format::kLui: case Format::kLoad: case Format::kStore:
      case Format::kJal: case Format::kCsrr: case Format::kCsrw:
        return 2;
      default:
        return 3;
    }
  }

  void instruction(const std::string& m, const std::vector<std::string>& args,
                   unsigned ln) {
    const auto arg = [&](std::size_t i) { return reg(args[i], ln); };
    const auto label = [&](std::size_t i) { return prefix_ + args[i]; };
    // The pseudo-instructions.
    if (m == "li" || m == "la") {
      expect_argc(args, 2, ln);
      if (m == "li") {
        a_->li(arg(0), imm32(args[1], ln));
      } else {
        a_->la(arg(0), label(1));
      }
      return;
    }
    if (m == "nop" || m == "ret") {
      expect_argc(args, 0, ln);
      if (m == "nop") {
        a_->nop();
      } else {
        a_->ret();
      }
      return;
    }

    const auto row = std::find_if(kOpTable.begin(), kOpTable.end(), [&](const OpRow& r) {
      return r.op != Op::kInvalid && r.mnemonic == m;
    });
    if (row == kOpTable.end()) throw ParseError(ln, "unknown mnemonic '" + m + "'");
    const Op op = row->op;
    const bool short_jal = row->fmt == Format::kJal && args.size() == 1;
    expect_argc(args, short_jal ? 1 : operand_count(row->fmt), ln);
    switch (row->fmt) {
      case Format::kR: case Format::kR64:
        a_->emit_r(op, arg(0), arg(1), arg(2));
        break;
      case Format::kAmo: {  // amoadd rd, (rs1), rs2
        std::string addr = args[1];
        if (addr.size() >= 2 && addr.front() == '(' && addr.back() == ')')
          addr = addr.substr(1, addr.size() - 2);
        a_->emit_r(op, arg(0), reg(addr, ln), arg(2));
        break;
      }
      case Format::kI:
        a_->emit_i(op, arg(0), arg(1), static_cast<i32>(imm32(args[2], ln)));
        break;
      case Format::kLui:
        a_->emit_i(op, arg(0), R0, static_cast<i32>(imm32(args[1], ln)));
        break;
      case Format::kLoad:
      case Format::kStore: {
        const auto [off, base] = mem_operand(args[1], ln);
        if (row->fmt == Format::kLoad) {
          a_->emit_i(op, arg(0), base, off);
        } else {
          a_->emit_s(op, arg(0), base, off);
        }
        break;
      }
      case Format::kBranch:
        a_->emit_b(op, arg(0), arg(1), label(2));
        break;
      case Format::kJal:
        if (short_jal) {
          a_->jal(label(0));
        } else {
          a_->jal(arg(0), label(1));
        }
        break;
      case Format::kCsrr:
        a_->csrr(arg(0), csr(args[1], ln));
        break;
      case Format::kCsrw:
        a_->csrw(csr(args[0], ln), arg(1));
        break;
      case Format::kNone:
        a_->emit(Instr{.op = op});
        break;
    }
  }

  std::string_view src_;
  std::optional<Assembler> owned_;
  Assembler* a_;
  std::string prefix_;
  bool fragment_ = false;
};

}  // namespace

Program assemble_text(std::string_view source, u32 origin) {
  return Parser(source, origin).run();
}

void assemble_text_into(Assembler& a, std::string_view source,
                        const std::string& label_prefix) {
  Parser(source, a, label_prefix).parse_all();
}

}  // namespace detstl::isa
