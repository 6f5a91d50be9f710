package bn256

import "sync"

// Token work on the lane kernels. Each live slot of a token walks the
// same Miller chain over the NAF of 6u+2, and each G2 point's membership
// test walks the same chain over the wNAF of u; only the inputs differ.
// So up to eight slots, or eight points, run as the lanes of one
// Jacobian twist chain on the Fp2 lane kernels (lanes.go), the way eight
// rows run as the lanes of one Miller evaluation. Both chains are
// straight-line: the Jacobian formulas have no branch, and a lane where
// one would have been taken (a point at infinity, H = 0 in an addition)
// ends with Z = 0, which the callers check.

// laneMinSlots is the fewest live slots PrecomputePairBatch records on
// the lanes. A lane chain costs the same for one slot as for eight; with
// one slot the scalar recorder is cheaper, so Pair, a one-slot batch,
// keeps it. For recording alone the scalar recorder also wins at two
// slots (BenchmarkLane/record2: 0.37 against 0.47 ms; the lanes win
// from three), but a program it records evaluates multi-row chunks on
// the row path rather than the lanes, so two slots stay on the lanes.
// No SJ.Dec token has fewer than five slots (DESIGN.md, "Thresholds").
const laneMinSlots = 2

// laneMinPoints is the fewest G2 points UnmarshalG2s checks for subgroup
// membership on the lanes at once; a smaller group runs the scalar inG2
// per point. Measured like laneMinSlots (BenchmarkTokenDecode and
// BenchmarkG2Unmarshal, DESIGN.md).
const laneMinPoints = 2

// ltwist is eight twist points in Jacobian coordinates, one per lane.
type ltwist struct{ x, y, z lfp2 }

func (t *ltwist) set(k int, a *twistPoint) {
	t.x.set(k, &a.x)
	t.y.set(k, &a.y)
	t.z.set(k, &a.z)
}

// double sets t = 2a with twistPoint.Double's formulas: a lane with
// Z = 0 or Y = 0 gets Z = 0.
func (t *ltwist) double(a *ltwist) {
	var A, B, C, D, E, F, x3, y3, z3 lfp2
	lfp2Square(&A, &a.x)
	lfp2Square(&B, &a.y)
	lfp2Square(&C, &B)

	lfp2Add(&D, &a.x, &B)
	lfp2Square(&D, &D)
	lfp2Sub(&D, &D, &A)
	lfp2Sub(&D, &D, &C)
	lfp2Add(&D, &D, &D)

	lfp2Add(&E, &A, &A)
	lfp2Add(&E, &E, &A)
	lfp2Square(&F, &E)

	lfp2Add(&x3, &D, &D)
	lfp2Sub(&x3, &F, &x3)

	lfp2Sub(&D, &D, &x3)
	lfp2Mul(&y3, &E, &D)
	lfp2Add(&C, &C, &C)
	lfp2Add(&C, &C, &C)
	lfp2Add(&C, &C, &C)
	lfp2Sub(&y3, &y3, &C)

	lfp2Mul(&z3, &a.y, &a.z)
	lfp2Add(&z3, &z3, &z3)
	t.x, t.y, t.z = x3, y3, z3
}

// add sets t = a + b with twistPoint.Add's formulas for distinct finite
// points: z3 = 2 Z1 Z2 H, so a lane where either input has Z = 0 or
// where H = 0 (a = b or a = -b, which Add would branch on) gets Z = 0.
func (t *ltwist) add(a, b *ltwist) {
	var z1z1, z2z2, u1, u2, s1, s2, h, r, i, j, v lfp2
	lfp2Square(&z1z1, &a.z)
	lfp2Square(&z2z2, &b.z)
	lfp2Mul(&u1, &a.x, &z2z2)
	lfp2Mul(&u2, &b.x, &z1z1)
	lfp2Mul(&s1, &a.y, &b.z)
	lfp2Mul(&s1, &s1, &z2z2)
	lfp2Mul(&s2, &b.y, &a.z)
	lfp2Mul(&s2, &s2, &z1z1)
	lfp2Sub(&h, &u2, &u1)
	lfp2Sub(&r, &s2, &s1)
	lfp2Add(&r, &r, &r)

	lfp2Add(&i, &h, &h)
	lfp2Square(&i, &i)
	lfp2Mul(&j, &h, &i)
	lfp2Mul(&v, &u1, &i)

	var x3, y3, z3 lfp2
	lfp2Square(&x3, &r)
	lfp2Sub(&x3, &x3, &j)
	lfp2Sub(&x3, &x3, &v)
	lfp2Sub(&x3, &x3, &v)

	lfp2Sub(&v, &v, &x3)
	lfp2Mul(&y3, &r, &v)
	lfp2Mul(&s1, &s1, &j)
	lfp2Add(&s1, &s1, &s1)
	lfp2Sub(&y3, &y3, &s1)

	lfp2Add(&z3, &a.z, &b.z)
	lfp2Square(&z3, &z3)
	lfp2Sub(&z3, &z3, &z1z1)
	lfp2Sub(&z3, &z3, &z2z2)
	lfp2Mul(&z3, &z3, &h)
	t.x, t.y, t.z = x3, y3, z3
}

// neg sets t = -a.
func (t *ltwist) neg(a *ltwist) {
	t.x, t.z = a.x, a.z
	lfp2Sub(&t.y, &laneZero2, &a.y)
}

// frobenius is twistPoint.Frobenius.
func (t *ltwist) frobenius(a *ltwist) {
	var c lfp2
	c.conjugate(&a.x)
	lfp2Mul(&t.x, &c, &laneFrob1[2])
	c.conjugate(&a.y)
	lfp2Mul(&t.y, &c, &laneFrob1[3])
	t.z.conjugate(&a.z)
}

// isZero reports whether lane k of e is zero mod p: a lane value below
// 2p is zero mod p if it is 0 or p, which join52's reduction tells.
func (e *lfp) isZero(k int) bool {
	l := e.col(k)
	t := join52(&l)
	return t.IsZero()
}

func (e *lfp2) isZero(k int) bool { return e[0].isZero(k) && e[1].isZero(k) }

// inG2Lanes sets ok[k] = ts[k].inG2() for up to eight points, running
// the Dai-Lin-Zhao-Zhou test of inG2 on the lanes, point k in lane k;
// unused lanes repeat the last point. The wNAF walk of u starts from the table
// entry of the top digit rather than from infinity, so no lane is at
// infinity unless its point is. A lane is decided on the lanes only if
// [u]t, the left side and the right side all have Z != 0 and the sides
// are equal or not: Z != 0 at the end means every addition and doubling
// behind it had non-zero inputs and H != 0, where the formulas are
// exact. Every other lane re-runs the scalar inG2; fallback has bit k
// set for each. So the lanes accept exactly the points inG2 accepts.
func inG2Lanes(ts []*twistPoint, ok []bool) (fallback uint8) {
	var t ltwist
	for k := 0; k < laneRows; k++ {
		t.set(k, ts[min(k, len(ts)-1)])
	}

	var table [1 << (uWNAFWidth - 2)]ltwist // table[i] = (2i+1)t
	var t2 ltwist
	t2.double(&t)
	table[0] = t
	for i := 1; i < len(table); i++ {
		table[i].add(&table[i-1], &t2)
	}
	n := len(uWNAF)
	ut := table[uWNAF[n-1]/2]
	var neg ltwist
	for i := n - 2; i >= 0; i-- {
		ut.double(&ut)
		switch d := uWNAF[i]; {
		case d > 0:
			ut.add(&ut, &table[d/2])
		case d < 0:
			neg.neg(&table[-d/2])
			ut.add(&ut, &neg)
		}
	}

	var lhs, rhs ltwist
	lhs.frobenius(&ut)
	lhs.add(&lhs, &ut)
	lhs.frobenius(&lhs)
	lhs.add(&lhs, &ut)
	lhs.add(&lhs, &t)
	rhs.double(&ut)
	rhs.frobenius(&rhs)
	rhs.frobenius(&rhs)
	rhs.frobenius(&rhs)

	// lhs == rhs as Jacobian points: X1 Z2^2 == X2 Z1^2 and
	// Y1 Z2^3 == Y2 Z1^3.
	var z1z1, z2z2, l, r, dx, dy lfp2
	lfp2Square(&z1z1, &lhs.z)
	lfp2Square(&z2z2, &rhs.z)
	lfp2Mul(&l, &lhs.x, &z2z2)
	lfp2Mul(&r, &rhs.x, &z1z1)
	lfp2Sub(&dx, &l, &r)
	lfp2Mul(&z2z2, &z2z2, &rhs.z)
	lfp2Mul(&z1z1, &z1z1, &lhs.z)
	lfp2Mul(&l, &lhs.y, &z2z2)
	lfp2Mul(&r, &rhs.y, &z1z1)
	lfp2Sub(&dy, &l, &r)

	for k := range ts {
		if ut.z.isZero(k) || lhs.z.isZero(k) || rhs.z.isZero(k) {
			ok[k] = ts[k].inG2()
			fallback |= 1 << k
			continue
		}
		ok[k] = dx.isZero(k) && dy.isZero(k)
	}
	return fallback
}

// lineStep is one recorded line of eight slots: A, B and C of
// millerRecorder's double and add, and normalize's norm N(A) and
// prefix product of the norms; after normalize, b and c hold B/A and
// C/A.
type lineStep struct {
	a, b, c      lfp2
	norm, prefix lfp
}

// stepPool recycles the chains' step buffers, about 225 KB each, which
// every recorded token would otherwise allocate and zero: every field
// of a step is written before it is read.
var stepPool = sync.Pool{New: func() any {
	steps := make([]lineStep, 0, millerSteps())
	return &steps
}}

// laneChain is the Miller chain of up to eight live slots, slot k in
// lane k; unused lanes repeat the last slot, so that no lane's A is
// zero (one zero lane would spoil lfp.invert's batch for all eight).
type laneChain struct {
	slots  []int32
	qx, qy lfp2 // the affine points
	nqy    lfp2 // -qy
	t      ltwist
	steps  []lineStep
	buf    *[]lineStep // steps' pooled buffer
}

// double is millerRecorder.double on the lanes, with the doubling's X^2
// and Y^2 shared with the line.
func (c *laneChain) double() {
	t := &c.t
	s := c.next()
	var zz, x2, y2, e, yz lfp2
	lfp2Square(&zz, &t.z)
	lfp2Square(&x2, &t.x)
	lfp2Square(&y2, &t.y)
	lfp2Add(&e, &x2, &x2)
	lfp2Add(&e, &e, &x2) // 3X^2
	lfp2Mul(&yz, &t.y, &t.z)
	lfp2Add(&yz, &yz, &yz) // 2YZ, the doubled point's Z
	// A = 2YZ^3, B = -3X^2 Z^2, C = 3X^3 - 2Y^2
	lfp2Mul(&s.a, &yz, &zz)
	lfp2Mul(&s.b, &e, &zz)
	lfp2Sub(&s.b, &laneZero2, &s.b)
	lfp2Mul(&s.c, &e, &t.x)
	lfp2Sub(&s.c, &s.c, &y2)
	lfp2Sub(&s.c, &s.c, &y2)

	var c2, d, f lfp2
	lfp2Square(&c2, &y2)
	lfp2Add(&d, &t.x, &y2)
	lfp2Square(&d, &d)
	lfp2Sub(&d, &d, &x2)
	lfp2Sub(&d, &d, &c2)
	lfp2Add(&d, &d, &d)
	lfp2Square(&f, &e)
	lfp2Add(&t.x, &d, &d)
	lfp2Sub(&t.x, &f, &t.x)
	lfp2Sub(&d, &d, &t.x)
	lfp2Mul(&t.y, &e, &d)
	lfp2Add(&c2, &c2, &c2)
	lfp2Add(&c2, &c2, &c2)
	lfp2Add(&c2, &c2, &c2)
	lfp2Sub(&t.y, &t.y, &c2)
	t.z = yz
}

// add is millerRecorder.add on the lanes for the affine point (qx, qy),
// with the addition itself in mixed form (Z2 = 1), sharing H and N with
// the line.
func (c *laneChain) add(qx, qy *lfp2) {
	t := &c.t
	s := c.next()
	var zz, h, n, tmp lfp2
	lfp2Square(&zz, &t.z)
	lfp2Mul(&h, qx, &zz)
	lfp2Sub(&h, &h, &t.x)
	lfp2Mul(&n, qy, &zz)
	lfp2Mul(&n, &n, &t.z)
	lfp2Sub(&n, &n, &t.y)
	// A = ZH, B = -N, C = N xQ - A yQ
	lfp2Mul(&s.a, &t.z, &h)
	lfp2Sub(&s.b, &laneZero2, &n)
	lfp2Mul(&s.c, &n, qx)
	lfp2Mul(&tmp, &s.a, qy)
	lfp2Sub(&s.c, &s.c, &tmp)

	// r = 2N, I = (2H)^2, J = H I, V = X I; X3 = r^2 - J - 2V,
	// Y3 = r (V - X3) - 2 Y J, Z3 = 2 Z H.
	var r, i, j, v lfp2
	lfp2Add(&r, &n, &n)
	lfp2Add(&i, &h, &h)
	lfp2Square(&i, &i)
	lfp2Mul(&j, &h, &i)
	lfp2Mul(&v, &t.x, &i)
	lfp2Square(&t.x, &r)
	lfp2Sub(&t.x, &t.x, &j)
	lfp2Sub(&t.x, &t.x, &v)
	lfp2Sub(&t.x, &t.x, &v)
	lfp2Sub(&v, &v, &t.x)
	lfp2Mul(&tmp, &t.y, &j)
	lfp2Mul(&t.y, &r, &v)
	lfp2Add(&tmp, &tmp, &tmp)
	lfp2Sub(&t.y, &t.y, &tmp)
	lfp2Add(&t.z, &s.a, &s.a)
}

func (c *laneChain) next() *lineStep {
	c.steps = c.steps[:len(c.steps)+1]
	return &c.steps[len(c.steps)-1]
}

// normalize is millerRecorder.normalize on the lanes: every step's b
// and c are divided by its A, with the Fp norms of all the chain's A
// inverted in one batch, and that batch's one inversion shared by the
// eight lanes (lfp.invert).
func (c *laneChain) normalize() {
	for s := range c.steps {
		st := &c.steps[s]
		var t lfp
		lfpMul(&st.norm, &st.a[0], &st.a[0])
		lfpMul(&t, &st.a[1], &st.a[1])
		lfpAdd(&st.norm, &st.norm, &t)
		if s == 0 {
			st.prefix = st.norm
		} else {
			lfpMul(&st.prefix, &c.steps[s-1].prefix, &st.norm)
		}
	}
	inv := c.steps[len(c.steps)-1].prefix
	inv.invert()
	for s := len(c.steps) - 1; s >= 0; s-- {
		st := &c.steps[s]
		ninv := inv
		if s > 0 {
			lfpMul(&ninv, &inv, &c.steps[s-1].prefix)
			lfpMul(&inv, &inv, &st.norm)
		}
		// 1/A = conj(A)/N(A)
		var ainv lfp2
		lfpMul(&ainv[0], &st.a[0], &ninv)
		lfpMul(&ainv[1], &st.a[1], &ninv)
		lfpSub(&ainv[1], &laneZero2[1], &ainv[1])
		lfp2Mul(&st.b, &st.b, &ainv)
		lfp2Mul(&st.c, &st.c, &ainv)
	}
}

// decoded is one lineStep's b and c, fully reduced, lane by lane.
type decoded [4][laneRows]gfP

func (g *decoded) set(st *lineStep) {
	st.b[0].gfps(&g[0])
	st.b[1].gfps(&g[1])
	st.c[0].gfps(&g[2])
	st.c[1].gfps(&g[3])
}

// appendLine appends lane k of st as slot j's line: the op with the
// coefficients the scalar recorder writes, fully reduced (g), and laneCo
// the lane values themselves.
func (pc *PairingPrecomp) appendLine(j int32, st *lineStep, g *decoded, k int) {
	pc.ops = append(pc.ops, ppOp{slot: j, b: gfP2{g[0][k], g[1][k]}, c: gfP2{g[2][k], g[3][k]}})
	pc.laneCo = append(pc.laneCo, [4][5]uint64{st.b[0].col(k), st.b[1].col(k), st.c[0].col(k), st.c[1].col(k)})
}

// recordLanes is record on the lane kernels: the live slots, with affine
// points qa, run in chains of up to eight, one slot per lane, and the
// program it writes is record's, op for op (TestLanePrecomputeMatchesRecorder):
// the normalized coefficients B/A and C/A do not depend on the Jacobian
// representative of the running point, so the lanes' formulas may differ
// from twistPoint's. The ops come in the scalar order, a step's lines
// slot by slot across the chains, and the two end lines of each slot
// together.
func (pc *PairingPrecomp) recordLanes(slots []int32, qa []twistPoint) {
	steps := millerSteps()
	chains := make([]laneChain, (len(slots)+laneRows-1)/laneRows)
	for ci := range chains {
		c := &chains[ci]
		c.slots = slots[ci*laneRows : min((ci+1)*laneRows, len(slots))]
		q := qa[ci*laneRows:]
		for k := 0; k < laneRows; k++ {
			p := &q[min(k, len(c.slots)-1)]
			c.qx.set(k, &p.x)
			c.qy.set(k, &p.y)
		}
		lfp2Sub(&c.nqy, &laneZero2, &c.qy)
		c.t = ltwist{x: c.qx, y: c.qy}
		c.t.z[0] = laneOne
		c.buf = stepPool.Get().(*[]lineStep)
		c.steps = (*c.buf)[:0]
	}
	defer func() {
		for ci := range chains {
			stepPool.Put(chains[ci].buf)
		}
	}()

	n := len(sixUPlus2NAF)
	for i := n - 2; i >= 0; i-- {
		for ci := range chains {
			chains[ci].double()
		}
		switch sixUPlus2NAF[i] {
		case 1:
			for ci := range chains {
				chains[ci].add(&chains[ci].qx, &chains[ci].qy)
			}
		case -1:
			for ci := range chains {
				chains[ci].add(&chains[ci].qx, &chains[ci].nqy)
			}
		}
	}
	for ci := range chains {
		// q1 = pi(q) and q2 = -pi^2(q), affine like q.
		c := &chains[ci]
		var q1x, q1y, q2x, q2y, t lfp2
		t.conjugate(&c.qx)
		lfp2Mul(&q1x, &t, &laneFrob1[2])
		t.conjugate(&c.qy)
		lfp2Mul(&q1y, &t, &laneFrob1[3])
		t.conjugate(&q1x)
		lfp2Mul(&q2x, &t, &laneFrob1[2])
		t.conjugate(&q1y)
		lfp2Mul(&q2y, &t, &laneFrob1[3])
		lfp2Sub(&q2y, &laneZero2, &q2y)
		c.add(&q1x, &q1y)
		c.add(&q2x, &q2y)
		c.normalize()
	}

	total := n - 1 + steps*len(slots)
	pc.ops = make([]ppOp, 0, total)
	pc.laneCo = make([][4][5]uint64, 0, total)
	var g, g2 decoded
	s := 0
	emitStep := func() {
		for ci := range chains {
			c := &chains[ci]
			st := &c.steps[s]
			g.set(st)
			for k, j := range c.slots {
				pc.appendLine(j, st, &g, k)
			}
		}
		s++
	}
	for i := n - 2; i >= 0; i-- {
		pc.ops = append(pc.ops, ppOp{slot: -1})
		pc.laneCo = append(pc.laneCo, [4][5]uint64{})
		emitStep()
		if sixUPlus2NAF[i] != 0 {
			emitStep()
		}
	}
	// The two end lines go slot by slot, both lines of a slot together.
	for ci := range chains {
		c := &chains[ci]
		st1, st2 := &c.steps[s], &c.steps[s+1]
		g.set(st1)
		g2.set(st2)
		for k, j := range c.slots {
			pc.appendLine(j, st1, &g, k)
			pc.appendLine(j, st2, &g2, k)
		}
	}
}
