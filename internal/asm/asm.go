// Package asm emits textual pseudo-assembly from the IR and scans it for
// surviving optimization markers.
//
// The paper's oracle observes exactly one thing: whether `call DCEMarkerN`
// appears in the compiled output (§3.1). This backend therefore does not
// allocate physical registers or schedule instructions; it produces an
// x86-flavoured listing with virtual registers in which every surviving
// call appears as a `call <name>` line, every global as a data-section
// symbol, and every block as a local label. Unreachable blocks are not
// emitted (no code generator emits them), so -O0's trivial frontend folding
// already eliminates some markers, as the paper measures.
package asm

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"dcelens/internal/ir"
	"dcelens/internal/token"
)

// Emit renders the module as pseudo-assembly.
func Emit(m *ir.Module) string {
	e := &emitter{}
	e.sb.Grow(sizeHint(m))
	e.sb.WriteString("\t.text\n")
	for _, f := range m.Funcs {
		if f.External {
			continue
		}
		e.function(f)
	}
	if len(m.Globals) > 0 {
		e.sb.WriteString("\t.data\n")
		for _, g := range m.Globals {
			emitGlobal(&e.sb, g)
		}
	}
	return e.sb.String()
}

// bytesPerInstr and bytesPerElem over-estimate the listing's average line
// cost per instruction and per initialized data element, so the builder
// is sized once instead of doubling its way up through every function.
const (
	bytesPerInstr = 24
	bytesPerElem  = 12
)

// sizeHint estimates the length of m's listing.
func sizeHint(m *ir.Module) int {
	n := 16
	for _, f := range m.Funcs {
		for _, b := range f.Blocks {
			n += bytesPerInstr * (len(b.Instrs) + 1)
		}
	}
	for _, g := range m.Globals {
		n += bytesPerElem * (g.Len + 2)
	}
	return n
}

func emitGlobal(sb *strings.Builder, g *ir.Global) {
	if !g.Internal {
		fmt.Fprintf(sb, "\t.globl %s\n", g.Name)
	}
	fmt.Fprintf(sb, "%s:\n", mangle(g.Name))
	var directive string
	switch g.Elem.Size() {
	case 1:
		directive = ".byte"
	case 2:
		directive = ".short"
	case 4:
		directive = ".long"
	case 8:
		directive = ".quad"
	}
	for i := 0; i < g.Len; i++ {
		var c ir.Const
		if i < len(g.Init) {
			c = g.Init[i]
		}
		if c.IsAddr {
			if c.Global == nil {
				fmt.Fprintf(sb, "\t.quad 0\n")
			} else if c.Off != 0 {
				fmt.Fprintf(sb, "\t.quad %s+%d\n", mangle(c.Global.Name), c.Off*int64(c.Global.Elem.Size()))
			} else {
				fmt.Fprintf(sb, "\t.quad %s\n", mangle(c.Global.Name))
			}
		} else {
			fmt.Fprintf(sb, "\t%s %d\n", directive, c.Int)
		}
	}
}

// mangle keeps symbol names assembler-friendly (hoisted statics contain
// dots already, which is fine for local symbols; spaces are not possible).
func mangle(name string) string { return name }

// emitter writes function bodies straight into one builder: registers,
// labels and immediates are appended with strconv instead of being
// formatted into throwaway strings, since codegen runs once per unit.
type emitter struct {
	sb  strings.Builder
	fn  string   // the function being emitted, for its local labels
	num [24]byte // strconv scratch
}

func (e *emitter) str(s string) { e.sb.WriteString(s) }

func (e *emitter) int(v int64) { e.sb.Write(strconv.AppendInt(e.num[:0], v, 10)) }

// reg writes in's virtual register, %v<ID>.
func (e *emitter) reg(in *ir.Instr) {
	e.sb.WriteString("%v")
	e.int(int64(in.ID))
}

// label writes b's local label, .L<function>_<ID>.
func (e *emitter) label(b *ir.Block) {
	e.sb.WriteString(".L")
	e.sb.WriteString(e.fn)
	e.sb.WriteByte('_')
	e.int(int64(b.ID))
}

// param writes the location of the i'th argument: a register for the
// first six, a stack slot beyond.
func (e *emitter) param(i int) {
	if i < len(paramRegs) {
		e.sb.WriteString(paramRegs[i])
		return
	}
	e.int(int64(8 * (i - len(paramRegs))))
	e.sb.WriteString("(%rsp)")
}

// op2 writes "\t<mn> <a>, <b>\n" for two registers.
func (e *emitter) op2(mn string, a, b *ir.Instr) {
	e.str(mn)
	e.reg(a)
	e.str(", ")
	e.reg(b)
	e.str("\n")
}

func (e *emitter) function(f *ir.Func) {
	e.fn = f.Name
	if !f.Internal {
		e.str("\t.globl ")
		e.str(f.Name)
		e.str("\n")
	}
	e.str(f.Name)
	e.str(":\n")

	// Deterministic code layout: reverse postorder of reachable blocks.
	blocks := f.ReversePostorder()
	for idx, b := range blocks {
		e.label(b)
		e.str(":\n")
		// The block emitted next, for fallthrough elision; nil after the
		// last one.
		var next *ir.Block
		if idx+1 < len(blocks) {
			next = blocks[idx+1]
		}
		for _, in := range b.Instrs {
			e.instr(in, next)
		}
	}
	e.str("\n")
}

func (e *emitter) instr(in *ir.Instr, next *ir.Block) {
	switch in.Op {
	case ir.OpConst:
		e.str("\tmov $")
		e.int(in.IntVal)
		e.str(", ")
		e.reg(in)
		e.str("\n")
	case ir.OpNull:
		e.op2("\txor ", in, in)
	case ir.OpGlobalAddr:
		e.str("\tlea ")
		e.str(mangle(in.Global.Name))
		e.str("(%rip), ")
		e.reg(in)
		e.str("\n")
	case ir.OpParam:
		e.str("\tmov ")
		e.param(in.ParamIdx)
		e.str(", ")
		e.reg(in)
		e.str("\n")
	case ir.OpAlloca:
		e.str("\tlea -")
		e.int(int64(8 * (in.ID + 1)))
		e.str("(%rbp), ")
		e.reg(in)
		e.str("\n")
	case ir.OpPhi:
		// Phis are resolved by the (virtual) register copies implied on
		// each incoming edge; document the join for readability.
		e.str("\t# phi ")
		e.reg(in)
		e.str("\n")
	case ir.OpBin:
		e.str("\t")
		e.str(mnemonic(in.BinOp))
		e.str(" ")
		e.reg(in.Args[0])
		e.str(", ")
		e.op2("", in.Args[1], in)
	case ir.OpCast:
		e.op2("\tmovsx ", in.Args[0], in)
	case ir.OpGEP:
		e.str("\tlea (")
		e.reg(in.Args[0])
		e.str(",")
		e.reg(in.Args[1])
		e.str(",")
		e.int(int64(in.Typ.Elem.Size()))
		e.str("), ")
		e.reg(in)
		e.str("\n")
	case ir.OpSelect:
		e.op2("\ttest ", in.Args[0], in.Args[0])
		e.op2("\tcmovnz ", in.Args[1], in)
		e.op2("\tcmovz ", in.Args[2], in)
	case ir.OpLoad:
		e.str("\tmov (")
		e.reg(in.Args[0])
		e.str("), ")
		e.reg(in)
		e.str("\n")
	case ir.OpStore:
		e.str("\tmov ")
		e.reg(in.Args[1])
		e.str(", (")
		e.reg(in.Args[0])
		e.str(")\n")
	case ir.OpCall:
		for i, a := range in.Args {
			e.str("\tmov ")
			e.reg(a)
			e.str(", ")
			e.param(i)
			e.str("\n")
		}
		e.str("\tcall ")
		e.str(in.Callee.Name)
		e.str("\n")
		if in.Typ != nil {
			e.str("\tmov %rax, ")
			e.reg(in)
			e.str("\n")
		}
	case ir.OpRet:
		if len(in.Args) > 0 {
			e.str("\tmov ")
			e.reg(in.Args[0])
			e.str(", %rax\n")
		}
		e.str("\tret\n")
	case ir.OpBr:
		// Fallthrough elision when the target is the next emitted block.
		if next != in.Targets[0] {
			e.jump("\tjmp ", in.Targets[0])
		}
	case ir.OpCondBr:
		e.op2("\ttest ", in.Args[0], in.Args[0])
		e.jump("\tjnz ", in.Targets[0])
		if next != in.Targets[1] {
			e.jump("\tjmp ", in.Targets[1])
		}
	}
}

// jump writes "\t<mn> <label of b>\n".
func (e *emitter) jump(mn string, b *ir.Block) {
	e.str(mn)
	e.label(b)
	e.str("\n")
}

var paramRegs = [...]string{"%rdi", "%rsi", "%rdx", "%rcx", "%r8", "%r9"}

var mnemonics = map[token.Kind]string{
	token.Plus: "add", token.Minus: "sub", token.Star: "imul",
	token.Slash: "idiv", token.Percent: "irem",
	token.Amp: "and", token.Pipe: "or", token.Caret: "xor",
	token.Shl: "shl", token.Shr: "shr",
	token.EqEq: "sete", token.NotEq: "setne",
	token.Lt: "setl", token.Gt: "setg", token.Le: "setle", token.Ge: "setge",
}

func mnemonic(op token.Kind) string {
	if n, ok := mnemonics[op]; ok {
		return n
	}
	return "op"
}

// ---------------------------------------------------------------------------
// Marker scanning — the oracle's observation (paper step ③).

// Calls extracts the multiset of callee names appearing as call
// instructions in the assembly.
func Calls(asmText string) map[string]int {
	out := map[string]int{}
	for rest := asmText; rest != ""; {
		var line string
		line, rest, _ = strings.Cut(rest, "\n")
		if name, ok := strings.CutPrefix(strings.TrimSpace(line), "call "); ok {
			out[strings.TrimSpace(name)]++
		}
	}
	return out
}

// SurvivingMarkers returns the marker names (per isMarker) present in the
// assembly, sorted.
func SurvivingMarkers(asmText string, isMarker func(string) bool) []string {
	var out []string
	for name := range Calls(asmText) {
		if isMarker(name) {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// Metrics are Barany-style static features of the generated code (related
// work in the paper §5: differential testing on assembly features). They
// support the comparison experiments but are not part of the DCE oracle.
type Metrics struct {
	Instructions int
	Calls        int
	Loads        int
	Stores       int
	Branches     int
}

// Measure computes static metrics of the assembly.
func Measure(asmText string) Metrics {
	var mt Metrics
	for _, line := range strings.Split(asmText, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, ".") || strings.HasPrefix(line, "#") ||
			strings.HasSuffix(line, ":") {
			continue
		}
		mt.Instructions++
		switch {
		case strings.HasPrefix(line, "call"):
			mt.Calls++
		case strings.HasPrefix(line, "jmp"), strings.HasPrefix(line, "jnz"), strings.HasPrefix(line, "jz"):
			mt.Branches++
		case strings.HasPrefix(line, "mov ("):
			mt.Loads++
		case strings.HasPrefix(line, "mov %") && strings.Contains(line, ", ("):
			mt.Stores++
		}
	}
	return mt
}
