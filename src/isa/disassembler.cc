#include "src/isa/disassembler.h"

#include <cstdio>

namespace neuroc {

namespace {

std::string Hex(uint32_t v) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "0x%x", v);
  return buf;
}

std::string RegList(uint16_t mask, bool pop) {
  std::string s = "{";
  bool first = true;
  for (int r = 0; r < 8; ++r) {
    if (mask & (1 << r)) {
      if (!first) {
        s += ", ";
      }
      s += RegName(static_cast<uint8_t>(r));
      first = false;
    }
  }
  if (mask & 0x100) {
    if (!first) {
      s += ", ";
    }
    s += pop ? "pc" : "lr";
  }
  s += "}";
  return s;
}

}  // namespace

std::string Disassemble(const Instr& in, uint32_t addr) {
  const std::string name = OpName(in.op);
  auto r = [](uint8_t reg) { return std::string(RegName(reg)); };
  auto imm = [](int32_t v) { return std::string("#").append(std::to_string(v)); };
  switch (in.op) {
    case Op::kLslImm:
    case Op::kLsrImm:
    case Op::kAsrImm:
      if (in.op == Op::kLslImm && in.imm == 0) {
        return "movs " + r(in.rd) + ", " + r(in.rm);
      }
      return name + " " + r(in.rd) + ", " + r(in.rm) + ", " + imm(in.imm);
    case Op::kAddReg:
    case Op::kSubReg:
      return name + " " + r(in.rd) + ", " + r(in.rn) + ", " + r(in.rm);
    case Op::kAddImm3:
    case Op::kSubImm3:
      return name + " " + r(in.rd) + ", " + r(in.rn) + ", " + imm(in.imm);
    case Op::kMovImm:
    case Op::kAddImm8:
    case Op::kSubImm8:
      return name + " " + r(in.rd) + ", " + imm(in.imm);
    case Op::kCmpImm:
      return name + " " + r(in.rn) + ", " + imm(in.imm);
    case Op::kAnd:
    case Op::kEor:
    case Op::kLslReg:
    case Op::kLsrReg:
    case Op::kAsrReg:
    case Op::kAdc:
    case Op::kSbc:
    case Op::kRor:
    case Op::kOrr:
    case Op::kMul:
    case Op::kBic:
    case Op::kMvn:
    case Op::kNeg:
      return name + " " + r(in.rd) + ", " + r(in.rm);
    case Op::kTst:
    case Op::kCmpReg:
    case Op::kCmn:
      return name + " " + r(in.rn) + ", " + r(in.rm);
    case Op::kAddHi:
    case Op::kMovHi:
      return name + " " + r(in.rd) + ", " + r(in.rm);
    case Op::kCmpHi:
      return name + " " + r(in.rn) + ", " + r(in.rm);
    case Op::kBx:
    case Op::kBlx:
      return name + " " + r(in.rm);
    case Op::kLdrLit:
      return "ldr " + r(in.rd) + ", [pc, " + imm(in.imm) + "]";
    case Op::kStrReg:
    case Op::kStrhReg:
    case Op::kStrbReg:
    case Op::kLdrsbReg:
    case Op::kLdrReg:
    case Op::kLdrhReg:
    case Op::kLdrbReg:
    case Op::kLdrshReg:
      return name + " " + r(in.rd) + ", [" + r(in.rn) + ", " + r(in.rm) + "]";
    case Op::kStrImm:
    case Op::kLdrImm:
    case Op::kStrbImm:
    case Op::kLdrbImm:
    case Op::kStrhImm:
    case Op::kLdrhImm:
      return name + " " + r(in.rd) + ", [" + r(in.rn) + ", " + imm(in.imm) + "]";
    case Op::kStrSp:
    case Op::kLdrSp:
      return name + " " + r(in.rd) + ", [sp, " + imm(in.imm) + "]";
    case Op::kAdr:
      return "adr " + r(in.rd) + ", " + imm(in.imm);
    case Op::kAddSpImm:
      return "add " + r(in.rd) + ", sp, " + imm(in.imm);
    case Op::kAddSp7:
      return "add sp, " + imm(in.imm);
    case Op::kSubSp7:
      return "sub sp, " + imm(in.imm);
    case Op::kSxth:
    case Op::kSxtb:
    case Op::kUxth:
    case Op::kUxtb:
    case Op::kRev:
    case Op::kRev16:
    case Op::kRevsh:
      return name + " " + r(in.rd) + ", " + r(in.rm);
    case Op::kPush:
      return "push " + RegList(in.reglist, false);
    case Op::kPop:
      return "pop " + RegList(in.reglist, true);
    case Op::kLdm:
    case Op::kStm:
      return name + " " + r(in.rn) + "!, " + RegList(in.reglist, false);
    case Op::kNop:
      return "nop";
    case Op::kBcond:
      return std::string("b").append(CondName(in.cond)) + " " + Hex(addr + 4 + in.imm);
    case Op::kB:
      return "b " + Hex(addr + 4 + in.imm);
    case Op::kBl:
      return "bl " + Hex(addr + 4 + in.imm);
    case Op::kUdf:
      return "udf " + imm(in.imm);
    case Op::kInvalid:
      break;
  }
  return "<invalid>";
}

}  // namespace neuroc
