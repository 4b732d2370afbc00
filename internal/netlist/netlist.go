// Package netlist parses a SPICE-flavoured text format into circuits, so the
// cmd tools can operate on user-authored decks. The grammar is documented in
// the README; in brief:
//
//   - comment                  ; or lines starting with ';' / '#'
//     .param k=10k               ; value substitution for later lines
//     .rail vdd 3.0              ; fixed node at a DC potential
//     .rail en pulse(0 3 1m 10u 10u 5m 10m)
//     .rail ref sin(1.5 1.5 9.6k 0)
//     .parasitic 1p              ; per-node parasitic capacitance
//     .gmin 1e-12
//     R1 a b 10k                 ; resistor
//     C1 a 0 4.7n                ; capacitor
//     G1 a b 1m                  ; conductance (siemens)
//     I1 0 n1 dc 100u            ; DC current source, flows from→to
//     I2 0 n1 sin(100u 19.2k 0.25)   ; amp freq phase(cycles) [offset]
//     M1 d g s nmos model=ald1106 mult=2
//     M2 d g s pmos vt0=0.8 beta=1.94e-4 lambda=0.02
//     T1 a b ctrl ron=1k roff=100g [von=1.8 voff=1.2]
//     S1 out mid=1.5 swing=1.4 rout=10k in=a:1 in=b:1 in=c:-2
//     .end
//
// Node "0"/"gnd"/"GND" is ground, which no .rail may name. Value suffixes
// f p n u m k meg g t are accepted.
package netlist

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/circuit"
	"repro/internal/device"
)

// Parse builds a circuit from netlist source text.
func Parse(src string) (*circuit.Circuit, error) {
	p := &parser{
		ckt:    circuit.New(),
		params: map[string]string{},
	}
	for i, raw := range strings.Split(src, "\n") {
		line := strings.TrimSpace(raw)
		if idx := strings.IndexAny(line, ";"); idx >= 0 {
			line = strings.TrimSpace(line[:idx])
		}
		if line == "" || line[0] == '*' || line[0] == '#' {
			continue
		}
		if err := p.line(line); err != nil {
			return nil, fmt.Errorf("netlist: line %d: %w", i+1, err)
		}
		if p.done {
			break
		}
	}
	return p.ckt, nil
}

type parser struct {
	ckt    *circuit.Circuit
	params map[string]string
	done   bool
}

func (p *parser) line(line string) error {
	fields := tokenize(p.substitute(line))
	if len(fields) == 0 {
		return nil
	}
	head := strings.ToLower(fields[0])
	if strings.HasPrefix(head, ".") {
		return p.directive(head, fields[1:])
	}
	switch head[0] {
	case 'r':
		return p.resistor(fields)
	case 'c':
		return p.capacitor(fields)
	case 'g':
		return p.conductor(fields)
	case 'i':
		return p.currentSource(fields)
	case 'm':
		return p.mosfet(fields)
	case 't':
		return p.transgate(fields)
	case 's':
		return p.summer(fields)
	default:
		return fmt.Errorf("unknown element %q", fields[0])
	}
}

// substitute replaces {name} parameter references.
func (p *parser) substitute(line string) string {
	for k, v := range p.params {
		line = strings.ReplaceAll(line, "{"+k+"}", v)
	}
	return line
}

// tokenize splits on whitespace but keeps func(...) groups intact.
func tokenize(line string) []string {
	var out []string
	var cur strings.Builder
	depth := 0
	for _, r := range line {
		switch {
		case r == '(':
			depth++
			cur.WriteRune(r)
		case r == ')':
			depth--
			cur.WriteRune(r)
		case (r == ' ' || r == '\t') && depth == 0:
			if cur.Len() > 0 {
				out = append(out, cur.String())
				cur.Reset()
			}
		default:
			cur.WriteRune(r)
		}
	}
	if cur.Len() > 0 {
		out = append(out, cur.String())
	}
	return out
}

func (p *parser) directive(name string, args []string) error {
	switch name {
	case ".end":
		p.done = true
		return nil
	case ".param":
		for _, a := range args {
			kv := strings.SplitN(a, "=", 2)
			if len(kv) != 2 {
				return fmt.Errorf(".param wants name=value, got %q", a)
			}
			p.params[kv[0]] = kv[1]
		}
		return nil
	case ".parasitic":
		if len(args) != 1 {
			return fmt.Errorf(".parasitic wants one value")
		}
		v, err := ParseValue(args[0])
		if err != nil {
			return err
		}
		p.ckt.ParasiticCap = v
		return nil
	case ".gmin":
		if len(args) != 1 {
			return fmt.Errorf(".gmin wants one value")
		}
		v, err := ParseValue(args[0])
		if err != nil {
			return err
		}
		p.ckt.Gmin = v
		return nil
	case ".rail":
		if len(args) != 2 {
			return fmt.Errorf(".rail wants name and value/waveform")
		}
		if circuit.IsGroundName(args[0]) {
			return fmt.Errorf(".rail %s: ground is fixed at 0 V", args[0])
		}
		if p.ckt.NodeIndex(args[0]) >= 0 {
			return fmt.Errorf(".rail %s: node already used as a free node (declare rails before use)", args[0])
		}
		w, err := parseWaveform(args[1])
		if err != nil {
			return err
		}
		p.ckt.AddRail(args[0], w)
		return nil
	default:
		return fmt.Errorf("unknown directive %q", name)
	}
}

// parseWaveform accepts a plain value, sin(offset amp freq [phase]) for
// rails, or pulse(v1 v2 delay rise fall width period).
func parseWaveform(tok string) (circuit.Waveform, error) {
	lower := strings.ToLower(tok)
	switch {
	case strings.HasPrefix(lower, "sin(") && strings.HasSuffix(lower, ")"):
		vals, err := parseArgs(tok[4 : len(tok)-1])
		if err != nil {
			return nil, err
		}
		if len(vals) < 3 || len(vals) > 4 {
			return nil, fmt.Errorf("rail sin wants (offset amp freq [phase]), got %d args", len(vals))
		}
		off, amp, freq := vals[0], vals[1], vals[2]
		ph := 0.0
		if len(vals) == 4 {
			ph = vals[3]
		}
		return &circuit.Sine{Amp: amp, Freq: freq, Phase: ph, Offset: off}, nil
	case strings.HasPrefix(lower, "pulse(") && strings.HasSuffix(lower, ")"):
		vals, err := parseArgs(tok[6 : len(tok)-1])
		if err != nil {
			return nil, err
		}
		if len(vals) != 7 {
			return nil, fmt.Errorf("pulse wants 7 args, got %d", len(vals))
		}
		return &circuit.Pulse{V1: vals[0], V2: vals[1], Delay: vals[2], Rise: vals[3], Fall: vals[4],
			Width: vals[5], Period: vals[6]}, nil
	default:
		v, err := ParseValue(tok)
		if err != nil {
			return nil, err
		}
		return circuit.DC(v), nil
	}
}

func parseArgs(s string) ([]float64, error) {
	var out []float64
	for _, f := range strings.Fields(strings.ReplaceAll(s, ",", " ")) {
		v, err := ParseValue(f)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

func (p *parser) node(name string) circuit.NodeID { return p.ckt.Node(name) }

func (p *parser) resistor(f []string) error {
	if len(f) != 4 {
		return fmt.Errorf("resistor wants: Rname a b value")
	}
	v, err := ParseValue(f[3])
	if err != nil {
		return err
	}
	p.ckt.Add(&device.Resistor{Name: f[0], A: p.node(f[1]), B: p.node(f[2]), R: v})
	return nil
}

func (p *parser) capacitor(f []string) error {
	if len(f) != 4 {
		return fmt.Errorf("capacitor wants: Cname a b value")
	}
	v, err := ParseValue(f[3])
	if err != nil {
		return err
	}
	p.ckt.Add(&device.Capacitor{Name: f[0], A: p.node(f[1]), B: p.node(f[2]), C: v})
	return nil
}

func (p *parser) conductor(f []string) error {
	if len(f) != 4 {
		return fmt.Errorf("conductor wants: Gname a b siemens")
	}
	v, err := ParseValue(f[3])
	if err != nil {
		return err
	}
	p.ckt.Add(&device.Conductor{Name: f[0], A: p.node(f[1]), B: p.node(f[2]), G: v})
	return nil
}

func (p *parser) currentSource(f []string) error {
	if len(f) < 4 {
		return fmt.Errorf("current source wants: Iname from to dc v | sin(...)")
	}
	from, to := p.node(f[1]), p.node(f[2])
	spec := strings.ToLower(f[3])
	switch {
	case spec == "dc":
		if len(f) != 5 {
			return fmt.Errorf("dc source wants a value")
		}
		v, err := ParseValue(f[4])
		if err != nil {
			return err
		}
		p.ckt.Add(device.DCCurrent(f[0], from, to, v))
		return nil
	case strings.HasPrefix(spec, "sin(") && strings.HasSuffix(spec, ")"):
		vals, err := parseArgs(f[3][4 : len(f[3])-1])
		if err != nil {
			return err
		}
		if len(vals) < 2 || len(vals) > 4 {
			return fmt.Errorf("sin source wants (amp freq [phase] [offset])")
		}
		w := &circuit.Sine{Amp: vals[0], Freq: vals[1]}
		if len(vals) >= 3 {
			w.Phase = vals[2]
		}
		if len(vals) == 4 {
			w.Offset = vals[3]
		}
		p.ckt.Add(&device.CurrentSource{Name: f[0], From: from, To: to, Wave: w})
		return nil
	default:
		// Bare value = DC.
		v, err := ParseValue(f[3])
		if err != nil {
			return err
		}
		p.ckt.Add(device.DCCurrent(f[0], from, to, v))
		return nil
	}
}

func (p *parser) mosfet(f []string) error {
	if len(f) < 5 {
		return fmt.Errorf("mosfet wants: Mname d g s nmos|pmos [model=] [vt0=] [beta=] [lambda=] [mult=]")
	}
	m := &device.MOSFET{Name: f[0], D: p.node(f[1]), G: p.node(f[2]), S: p.node(f[3])}
	switch strings.ToLower(f[4]) {
	case "nmos":
		m.Params = device.ALD1106()
	case "pmos":
		m.Params = device.ALD1107()
		m.PMOS = true
	default:
		return fmt.Errorf("mosfet type must be nmos or pmos, got %q", f[4])
	}
	for _, kvs := range f[5:] {
		kv := strings.SplitN(kvs, "=", 2)
		if len(kv) != 2 {
			return fmt.Errorf("bad mosfet parameter %q", kvs)
		}
		switch strings.ToLower(kv[0]) {
		case "model":
			switch strings.ToLower(kv[1]) {
			case "ald1106":
				m.Params = device.ALD1106()
			case "ald1107":
				m.Params = device.ALD1107()
			default:
				return fmt.Errorf("unknown mosfet model %q", kv[1])
			}
		case "vt0", "beta", "lambda", "smooth", "mult":
			v, err := ParseValue(kv[1])
			if err != nil {
				return err
			}
			switch strings.ToLower(kv[0]) {
			case "vt0":
				m.Params.VT0 = v
			case "beta":
				m.Params.Beta = v
			case "lambda":
				m.Params.Lambda = v
			case "smooth":
				m.Params.SmoothVov = v
			case "mult":
				m.Mult = v
			}
		default:
			return fmt.Errorf("unknown mosfet parameter %q", kv[0])
		}
	}
	p.ckt.Add(m)
	return nil
}

func (p *parser) transgate(f []string) error {
	if len(f) < 4 {
		return fmt.Errorf("transgate wants: Tname a b ctrl [ron=] [roff=] [von=] [voff=]")
	}
	t := &device.TransGate{Name: f[0], A: p.node(f[1]), B: p.node(f[2]), Ctrl: p.node(f[3]),
		Ron: 1e3, Roff: 100e9}
	for _, kvs := range f[4:] {
		kv := strings.SplitN(kvs, "=", 2)
		if len(kv) != 2 {
			return fmt.Errorf("bad transgate parameter %q", kvs)
		}
		v, err := ParseValue(kv[1])
		if err != nil {
			return err
		}
		switch strings.ToLower(kv[0]) {
		case "ron":
			t.Ron = v
		case "roff":
			t.Roff = v
		case "von":
			t.Von = v
		case "voff":
			t.Voff = v
		default:
			return fmt.Errorf("unknown transgate parameter %q", kv[0])
		}
	}
	p.ckt.Add(t)
	return nil
}

func (p *parser) summer(f []string) error {
	if len(f) < 3 {
		return fmt.Errorf("summer wants: Sname out [mid=] [swing=] [rout=] in=node:weight...")
	}
	s := &device.Summer{Name: f[0], Out: p.node(f[1]), Mid: 1.5, Swing: 1.4, Rout: 10e3}
	for _, kvs := range f[2:] {
		kv := strings.SplitN(kvs, "=", 2)
		if len(kv) != 2 {
			return fmt.Errorf("bad summer parameter %q", kvs)
		}
		switch strings.ToLower(kv[0]) {
		case "in":
			nw := strings.SplitN(kv[1], ":", 2)
			if len(nw) != 2 {
				return fmt.Errorf("summer input wants node:weight, got %q", kv[1])
			}
			w, err := ParseValue(nw[1])
			if err != nil {
				return err
			}
			s.Inputs = append(s.Inputs, p.node(nw[0]))
			s.Weights = append(s.Weights, w)
		case "mid", "swing", "rout":
			v, err := ParseValue(kv[1])
			if err != nil {
				return err
			}
			switch strings.ToLower(kv[0]) {
			case "mid":
				s.Mid = v
			case "swing":
				s.Swing = v
			case "rout":
				s.Rout = v
			}
		default:
			return fmt.Errorf("unknown summer parameter %q", kv[0])
		}
	}
	if len(s.Inputs) == 0 {
		return fmt.Errorf("summer needs at least one in=node:weight")
	}
	p.ckt.Add(s)
	return nil
}

// ParseValue parses a number with optional SPICE suffix (f p n u m k meg g t).
func ParseValue(s string) (float64, error) {
	s = strings.TrimSpace(strings.ToLower(s))
	mult := 1.0
	switch {
	case strings.HasSuffix(s, "meg"):
		mult, s = 1e6, s[:len(s)-3]
	case strings.HasSuffix(s, "f"):
		mult, s = 1e-15, s[:len(s)-1]
	case strings.HasSuffix(s, "p"):
		mult, s = 1e-12, s[:len(s)-1]
	case strings.HasSuffix(s, "n"):
		mult, s = 1e-9, s[:len(s)-1]
	case strings.HasSuffix(s, "u"):
		mult, s = 1e-6, s[:len(s)-1]
	case strings.HasSuffix(s, "m"):
		mult, s = 1e-3, s[:len(s)-1]
	case strings.HasSuffix(s, "k"):
		mult, s = 1e3, s[:len(s)-1]
	case strings.HasSuffix(s, "g"):
		mult, s = 1e9, s[:len(s)-1]
	case strings.HasSuffix(s, "t"):
		mult, s = 1e12, s[:len(s)-1]
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, fmt.Errorf("bad value %q", s)
	}
	return v * mult, nil
}
