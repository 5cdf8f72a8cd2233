package circuit

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"effitest/internal/buffers"
	"effitest/internal/skew"
	"effitest/internal/ssta"
	"effitest/internal/variation"
)

// The netlist format is a line-oriented text form that captures circuit
// structure (FFs, gates with placement, paths, buffers, exclusions) plus the
// variation-model configuration. Statistical delay forms are derived data:
// the parser reconstructs every canonical form from the gates (and applies
// the optional "inflate" directive a WithInflatedSigma copy carries), so a
// write/parse round trip reproduces the circuit exactly.

const netlistHeader = "effitest-netlist v1"

// Parser hardening bounds. Netlists are an interchange format, so the
// parser must fail cleanly on hostile input instead of allocating
// unboundedly: the flip-flop count sizes several arrays up front, and the
// variation grid is Cholesky-factorized (O(cells³)). Larger models remain
// available programmatically.
const (
	maxNetlistFF        = 1 << 20
	maxNetlistGridCells = 1024
	maxNetlistSteps     = 1 << 20
)

// netlistArity maps every directive to its fixed argument count.
var netlistArity = map[string]int{
	"end": 0, "circuit": 1, "ffs": 1, "setup": 1, "hold": 1, "tnominal": 1,
	"variation": 11, "inflate": 1, "buffer": 4, "gate": 4, "path": 6, "exclusive": 2,
}

// parseFinite parses a float and rejects NaN/±Inf: every numeric quantity
// in a netlist is a physical delay, sigma or scale, and a non-finite value
// would sail through downstream validation (NaN compares false against
// every bound) and corrupt the statistical model.
func parseFinite(s string) (float64, error) {
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, err
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0, fmt.Errorf("non-finite value %q", s)
	}
	return v, nil
}

func ff(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// WriteNetlist serializes the circuit. Only the default grid variation
// model is serializable; quad-tree models are a programmatic option.
func WriteNetlist(w io.Writer, c *Circuit) error {
	cfg := c.Model.Cfg
	if cfg.Kind != variation.KindGrid {
		return fmt.Errorf("netlist: only the grid variation model is serializable (got kind %d)", cfg.Kind)
	}
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, netlistHeader)
	fmt.Fprintf(bw, "circuit %s\n", c.Name)
	fmt.Fprintf(bw, "ffs %d\n", c.NumFF)
	fmt.Fprintf(bw, "setup %s\n", ff(c.SetupTime))
	fmt.Fprintf(bw, "hold %s\n", ff(c.HoldTime))
	fmt.Fprintf(bw, "tnominal %s\n", ff(c.TNominal))
	fmt.Fprintf(bw, "variation %d %d %s %s %s %s %s %s %s %s %s\n",
		cfg.GridW, cfg.GridH,
		ff(cfg.SigmaL), ff(cfg.SigmaTox), ff(cfg.SigmaVth),
		ff(cfg.CorrGlobal), ff(cfg.CorrDecay),
		ff(cfg.SensL), ff(cfg.SensTox), ff(cfg.SensVth), ff(cfg.SigmaRand))
	if c.inflation != 0 {
		fmt.Fprintf(bw, "inflate %s\n", ff(c.inflation))
	}
	for i, b := range c.Buffered {
		d := c.Devices.Devices[i]
		fmt.Fprintf(bw, "buffer %d %s %s %d\n", b, ff(d.Lo), ff(d.Hi), d.Steps)
	}
	for _, g := range c.Gates {
		fmt.Fprintf(bw, "gate %d %d %d %s\n", g.ID, g.CellX, g.CellY, ff(g.Nominal))
	}
	for _, p := range c.Paths {
		ids := make([]string, len(p.Gates))
		for i, g := range p.Gates {
			ids[i] = strconv.Itoa(g)
		}
		fmt.Fprintf(bw, "path %d %d %d %d %s %s\n",
			p.ID, p.From, p.To, p.Cluster, ff(p.MinScale), strings.Join(ids, ","))
	}
	for _, e := range c.Exclusive {
		fmt.Fprintf(bw, "exclusive %d %d\n", e[0], e[1])
	}
	fmt.Fprintln(bw, "end")
	return bw.Flush()
}

// ParseNetlist reads a circuit back from the text form, reconstructing all
// statistical delay forms from the gates and variation model.
func ParseNetlist(r io.Reader) (*Circuit, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	lineNo := 0
	next := func() (string, bool) {
		for sc.Scan() {
			lineNo++
			ln := strings.TrimSpace(sc.Text())
			if ln == "" || strings.HasPrefix(ln, "#") {
				continue
			}
			return ln, true
		}
		return "", false
	}
	fail := func(format string, args ...any) error {
		return fmt.Errorf("netlist line %d: %s", lineNo, fmt.Sprintf(format, args...))
	}

	ln, ok := next()
	if !ok || ln != netlistHeader {
		return nil, fail("missing header %q", netlistHeader)
	}

	c := &Circuit{}
	var cfg variation.Config
	var haveVar bool
	var bufFF []int
	var bufDev []buffers.Device
	type rawPath struct {
		id, from, to, cluster int
		minScale              float64
		gates                 []int
	}
	var rawPaths []rawPath

	for {
		ln, ok := next()
		if !ok {
			return nil, fail("missing end marker")
		}
		fields := strings.Fields(ln)
		// Every directive has a fixed arity; checking it here keeps the
		// per-case code free of index-out-of-range hazards on truncated
		// lines.
		if want, known := netlistArity[fields[0]]; known && len(fields) != want+1 {
			return nil, fail("%s wants %d args, got %d", fields[0], want, len(fields)-1)
		}
		switch fields[0] {
		case "end":
			goto done
		case "circuit":
			c.Name = fields[1]
		case "ffs":
			v, err := strconv.Atoi(fields[1])
			if err != nil {
				return nil, fail("bad ff count: %v", err)
			}
			if v < 1 || v > maxNetlistFF {
				return nil, fail("ff count %d outside [1, %d]", v, maxNetlistFF)
			}
			c.NumFF = v
		case "setup", "hold", "tnominal":
			v, err := parseFinite(fields[1])
			if err != nil {
				return nil, fail("bad %s: %v", fields[0], err)
			}
			switch fields[0] {
			case "setup":
				c.SetupTime = v
			case "hold":
				c.HoldTime = v
			default:
				c.TNominal = v
			}
		case "variation":
			ints := [2]int{}
			for i := 0; i < 2; i++ {
				v, err := strconv.Atoi(fields[1+i])
				if err != nil {
					return nil, fail("bad variation grid: %v", err)
				}
				ints[i] = v
			}
			// Bound each dimension before multiplying: the product of two
			// huge ints can wrap past the cell cap.
			if ints[0] < 1 || ints[1] < 1 ||
				ints[0] > maxNetlistGridCells || ints[1] > maxNetlistGridCells ||
				ints[0]*ints[1] > maxNetlistGridCells {
				return nil, fail("variation grid %dx%d outside [1,1]..[%d cells]", ints[0], ints[1], maxNetlistGridCells)
			}
			fs := [9]float64{}
			for i := 0; i < 9; i++ {
				v, err := parseFinite(fields[3+i])
				if err != nil {
					return nil, fail("bad variation field: %v", err)
				}
				fs[i] = v
			}
			if fs[0] < 0 || fs[1] < 0 || fs[2] < 0 || fs[8] < 0 {
				return nil, fail("variation sigmas must be non-negative")
			}
			if fs[4] <= 0 {
				return nil, fail("variation correlation decay must be positive")
			}
			cfg = variation.Config{
				GridW: ints[0], GridH: ints[1],
				SigmaL: fs[0], SigmaTox: fs[1], SigmaVth: fs[2],
				CorrGlobal: fs[3], CorrDecay: fs[4],
				SensL: fs[5], SensTox: fs[6], SensVth: fs[7],
				SigmaRand: fs[8],
			}
			haveVar = true
		case "inflate":
			v, err := parseFinite(fields[1])
			if err != nil {
				return nil, fail("bad inflate: %v", err)
			}
			if v < 1 {
				return nil, fail("inflate factor %g below 1", v)
			}
			if c.inflation != 0 {
				return nil, fail("duplicate inflate")
			}
			c.inflation = v
		case "buffer":
			ffid, err1 := strconv.Atoi(fields[1])
			lo, err2 := parseFinite(fields[2])
			hi, err3 := parseFinite(fields[3])
			steps, err4 := strconv.Atoi(fields[4])
			if err1 != nil || err2 != nil || err3 != nil || err4 != nil {
				return nil, fail("bad buffer line")
			}
			if lo > hi {
				return nil, fail("buffer range [%g,%g] inverted", lo, hi)
			}
			if steps < 0 || steps > maxNetlistSteps {
				return nil, fail("buffer steps %d outside [0, %d]", steps, maxNetlistSteps)
			}
			bufFF = append(bufFF, ffid)
			bufDev = append(bufDev, buffers.Device{FF: ffid, Lo: lo, Hi: hi, Steps: steps})
		case "gate":
			id, err1 := strconv.Atoi(fields[1])
			x, err2 := strconv.Atoi(fields[2])
			y, err3 := strconv.Atoi(fields[3])
			nom, err4 := parseFinite(fields[4])
			if err1 != nil || err2 != nil || err3 != nil || err4 != nil {
				return nil, fail("bad gate line")
			}
			if id != len(c.Gates) {
				return nil, fail("gate ids must be dense and ascending, got %d", id)
			}
			c.Gates = append(c.Gates, Gate{ID: id, CellX: x, CellY: y, Nominal: nom})
		case "path":
			id, err1 := strconv.Atoi(fields[1])
			from, err2 := strconv.Atoi(fields[2])
			to, err3 := strconv.Atoi(fields[3])
			cluster, err4 := strconv.Atoi(fields[4])
			minScale, err5 := parseFinite(fields[5])
			if err1 != nil || err2 != nil || err3 != nil || err4 != nil || err5 != nil {
				return nil, fail("bad path line")
			}
			if minScale < 0 {
				return nil, fail("path min-scale %g negative", minScale)
			}
			var gates []int
			for _, s := range strings.Split(fields[6], ",") {
				g, err := strconv.Atoi(s)
				if err != nil {
					return nil, fail("bad gate ref %q", s)
				}
				gates = append(gates, g)
			}
			rawPaths = append(rawPaths, rawPath{id, from, to, cluster, minScale, gates})
		case "exclusive":
			a, err1 := strconv.Atoi(fields[1])
			b, err2 := strconv.Atoi(fields[2])
			if err1 != nil || err2 != nil {
				return nil, fail("bad exclusive line")
			}
			c.Exclusive = append(c.Exclusive, [2]int{a, b})
		default:
			return nil, fail("unknown directive %q", fields[0])
		}
	}
done:
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if !haveVar {
		return nil, fmt.Errorf("netlist: missing variation line")
	}
	model, err := variation.New(cfg)
	if err != nil {
		return nil, err
	}
	c.Model = model

	c.Buffered = bufFF
	c.Devices = buffers.Chain{Devices: bufDev}
	c.Buf = skew.Buffers{
		N:        c.NumFF,
		Buffered: make([]bool, c.NumFF),
		Lo:       make([]float64, c.NumFF),
		Hi:       make([]float64, c.NumFF),
	}
	for _, d := range bufDev {
		if d.FF < 0 || d.FF >= c.NumFF {
			return nil, fmt.Errorf("netlist: buffer FF %d out of range", d.FF)
		}
		c.Buf.Buffered[d.FF] = true
		c.Buf.Lo[d.FF] = d.Lo
		c.Buf.Hi[d.FF] = d.Hi
		c.Buf.Steps = d.Steps
	}

	// Rebuild canonical forms from gates.
	for _, rp := range rawPaths {
		if rp.id != len(c.Paths) {
			return nil, fmt.Errorf("netlist: path ids must be dense and ascending, got %d", rp.id)
		}
		var canon ssta.Canon
		for k, gid := range rp.gates {
			if gid < 0 || gid >= len(c.Gates) {
				return nil, fmt.Errorf("netlist: path %d references gate %d", rp.id, gid)
			}
			g := c.Gates[gid]
			gc := model.GateCanon(g.Nominal, g.CellX, g.CellY)
			if k == 0 {
				canon = gc
			} else {
				canon = ssta.Add(canon, gc)
			}
		}
		c.Paths = append(c.Paths, Path{
			ID: rp.id, From: rp.from, To: rp.to, Gates: rp.gates,
			Cluster: rp.cluster, MinScale: rp.minScale,
			Max: ssta.ShiftMean(canon, c.SetupTime),
			Min: ssta.Scale(canon, rp.minScale),
		})
	}
	if c.inflation != 0 {
		inflateRand(c.Paths, c.inflation)
	}
	if err := c.Validate(); err != nil {
		return nil, fmt.Errorf("netlist: %w", err)
	}
	return c, nil
}
