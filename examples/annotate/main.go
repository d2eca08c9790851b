// Annotate demonstrates the compiler side of the paper: a kernel written
// in the mini-IR is analyzed (CFG → dominators → natural loops), its
// innermost tight loop is wrapped in BLOCK_BEGIN/BLOCK_END markers by
// the automatic annotation pass, and the annotated program is executed
// to show the marker placement in the committed instruction stream.
package main

import (
	"fmt"
	"log"

	"cbws/internal/annotate"
	"cbws/internal/interp"
	"cbws/internal/ir"
	"cbws/internal/trace"
)

func main() {
	// sum += a[i*cols + j] over a 4x8 matrix: a doubly-nested loop.
	b := ir.NewBuilder("matsum")
	const base = 1 << 24
	i := b.Const(0)
	j := b.Reg()
	rows := b.Const(4)
	cols := b.Const(8)
	sum := b.Const(0)
	ci := b.Reg()
	cj := b.Reg()
	addr := b.Reg()
	v := b.Reg()
	b.Label("outer")
	b.CmpLT(ci, i, rows)
	b.BrZ(ci, "done")
	b.ConstTo(j, 0)
	b.Label("inner")
	b.CmpLT(cj, j, cols)
	b.BrZ(cj, "iend")
	b.Mul(addr, i, cols)
	b.Add(addr, addr, j)
	b.MulI(addr, addr, 8)
	b.Load(v, addr, base)
	b.Add(sum, sum, v)
	b.AddI(j, j, 1)
	b.Jmp("inner")
	b.Label("iend")
	b.AddI(i, i, 1)
	b.Jmp("outer")
	b.Label("done")
	b.Ret()
	prog := b.MustBuild()

	fmt.Println("=== original program ===")
	fmt.Print(prog)

	res, err := annotate.Annotate(prog, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nannotation pass found %d innermost tight loop(s):\n", len(res.Loops))
	for _, l := range res.Loops {
		fmt.Printf("  block %d: header B%d, latch B%d, %d static instructions\n",
			l.BlockID, l.Header, l.Latch, l.StaticInstrs)
	}

	fmt.Println("\n=== annotated program ===")
	fmt.Print(res.Prog)

	// Execute and show the first events of the committed stream.
	m, err := interp.New(res.Prog, 0)
	if err != nil {
		log.Fatal(err)
	}
	tr := trace.New("matsum")
	if err := m.RunBatches(tr); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\n=== first 20 committed events ===")
	for i, e := range tr.Events {
		if i >= 20 {
			break
		}
		fmt.Printf("  %v\n", e)
	}
	fmt.Printf("(%d events total; only the inner loop carries markers)\n", len(tr.Events))
}
