#pragma once
// Textual assembler front-end: parses assembly source into a Program via the
// builder Assembler. Lets self-test routines be written/maintained as .s
// files alongside the programmatic generators.
//
// Every kOpTable mnemonic (isa.h) is accepted, with the operands of its
// Format; li, la, nop and ret are the pseudo-instructions. Syntax:
//   label:                      ; labels end with ':'
//   add   r3, r1, r2            ; registers are r0..r31
//   addi  r1, r0, -42           ; immediates: decimal or 0x... hex
//   lui   r1, 0xdead
//   amoadd r5, (r10), r2
//   lw    r5, 8(r10)            ; loads/stores use offset(base)
//   sw    r5, -4(r10)
//   beq   r1, r2, target        ; control flow targets are labels
//   jal   r31, func             ; or just `jal func`
//   csrr  r4, 0x002             ; CSR number as immediate
//   csrw  0x021, r4
//   li    r7, 0xdeadbeef        ; pseudo: lui+ori
//   la    r7, table             ; pseudo: absolute address of label
//   .org  0x10002000            ; location control
//   .align 8
//   .word 0x12345678            ; data
//   .word label                 ; 32-bit absolute address of a label
//   .space 64
//   .entry main                 ; program entry point
// Comments start with ';' or '#' and run to end of line. A 32-bit operand
// (immediate, offset, li value, .word) must lie in [-2^31, 2^32), a CSR
// number in [0, 0xffff] and a .org/.align/.space operand in [0, 2^32); the
// builder then range-checks immediates by the op's ImmKind. Anything else,
// and a wrong operand count, is a ParseError naming the line.

#include <stdexcept>
#include <string>
#include <string_view>

#include "isa/program.h"

namespace detstl::isa {

class Assembler;

class ParseError : public std::runtime_error {
 public:
  ParseError(unsigned line, const std::string& msg)
      : std::runtime_error("line " + std::to_string(line) + ": " + msg), line_(line) {}
  unsigned line() const { return line_; }

 private:
  unsigned line_;
};

/// Assemble `source`; `origin` is the address before any `.org`.
Program assemble_text(std::string_view source, u32 origin = 0);

/// Emit `source` into an existing Assembler at its current location. Every
/// label defined or referenced in the source is prefixed with `label_prefix`,
/// so text fragments compose with programmatically emitted code (this is how
/// text-authored self-test routine bodies plug into the wrappers).
/// Location directives (.org) and .entry are rejected in fragment mode.
void assemble_text_into(Assembler& a, std::string_view source,
                        const std::string& label_prefix);

}  // namespace detstl::isa
