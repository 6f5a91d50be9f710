//go:build !amd64 || purego

package bn256

// useADX is false where there are no assembly field kernels: on other
// architectures and under the purego build tag.
const useADX = false

// useIFMA is false for the same reason: the lane kernels are assembly.
const useIFMA = false

// The kernels below stand in for the assembly. The comb's selects need
// no useADX, so they are the Go code here; the rest only let the
// dispatchers compile: with useADX a constant false, no caller reaches
// them.

func g1SelectAffine(res *g1Affine, row *g1CombRow, mag uint64) { row.selectGeneric(res, mag) }

func g2SelectAffine(res *g2Affine, row *g2CombRow, mag uint64) { row.selectGeneric(res, mag) }

func g1AddMixed(r, p *g1Proj, q *g1Affine) { addMixedG1(r, p, q) }

func gfpMul(c, a, b *gfP) { c.mulGeneric(a, b) }

func gfp2Mul(c, a, b *gfP2) { c.mulGeneric(a, b) }

func gfp2Square(c, a *gfP2) { c.squareGeneric(a) }

func gfp12MulLine(e, a *gfP12, l1, l3 *gfP2) { e.mulLineGeneric(a, l1, l3) }

func gfp6Mul(e, a, b *gfP6) { e.mulGeneric(a, b) }

func gfp12CyclotomicSquare(e, a *gfP12) { e.cyclotomicSquareGeneric(a) }

func gfp12Mul(e, a, b *gfP12) { e.mulGeneric(a, b) }

func gfp12Square(e, a *gfP12) { e.squareGeneric(a) }

// The lane kernels have no Go version: with useIFMA a constant false,
// the lane evaluator is never reached.

func lfpMul(c, a, b *lfp)                             { panic(errNoLanes) }
func lfpAdd(c, a, b *lfp)                             { panic(errNoLanes) }
func lfpSub(c, a, b *lfp)                             { panic(errNoLanes) }
func lfp2Add(c, a, b *lfp2)                           { panic(errNoLanes) }
func lfp2Sub(c, a, b *lfp2)                           { panic(errNoLanes) }
func lfp2Mul(c, a, b *lfp2)                           { panic(errNoLanes) }
func lfp2Square(c, a *lfp2)                           { panic(errNoLanes) }
func lfp2MulXi(c, a *lfp2)                            { panic(errNoLanes) }
func lfpLine(l *[2]lfp2, co *[4][5]uint64, x, y *lfp) { panic(errNoLanes) }
func lfp12MulLine(e, a *lfp12, l1, l3 *lfp2)          { panic(errNoLanes) }
func lfp6Mul(c, a, b *lfp6)                           { panic(errNoLanes) }
func lfp12Square(e, a *lfp12)                         { panic(errNoLanes) }
func lfp12Mul(e, a, b *lfp12)                         { panic(errNoLanes) }
func lfp12CyclotomicSquare(e, a *lfp12)               { panic(errNoLanes) }
func laneSelect(q *lfp, row *uint64, coords int, mag, sign *[laneRows]uint64) {
	panic(errNoLanes)
}
func g1AddMixedLanes(r, p *g1LaneProj, q *g1LaneAffine, mag *[laneRows]uint64) { panic(errNoLanes) }

const errNoLanes = "bn256: lane kernels called without useIFMA"
