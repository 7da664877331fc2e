package cnf

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// MaxVars bounds every variable a parsed formula names: the "p cnf"
// variable count, each clause and XOR literal, and each "c ind"
// variable. Setup allocates per declared variable, so without it a
// short text could size an allocation no process survives. It is four
// times the largest instance internal/benchgen generates (tutorial3 at
// full scale, 1,047,176 variables). The persistent store's setup
// frames hold DIMACS text, so every formula they decode meets it too.
const MaxVars = 1 << 22

// ParseDIMACS reads a formula in DIMACS CNF format. Two extensions used
// by the UniGen/ApproxMC tool family are supported:
//
//   - "c ind v1 v2 ... 0" comment lines declare the sampling set
//     (independent support); multiple lines accumulate.
//   - clause lines beginning with "x" declare XOR clauses in the
//     CryptoMiniSAT convention: "x1 2 -3 0" means v1 ⊕ v2 ⊕ v3 = 0
//     (a leading negative literal flips the right-hand side).
//
// A variable count, literal or sampling variable above MaxVars is an
// error, as is a line longer than 16 MiB.
func ParseDIMACS(r io.Reader) (*Formula, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, 1<<24) // grows from the scanner's default size
	f := &Formula{}
	declared := 0
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		switch {
		case strings.HasPrefix(line, "c ind "):
			fields := strings.Fields(line[len("c ind"):])
			for _, tok := range fields {
				v, ok := parseLit(tok)
				if !ok {
					return nil, fmt.Errorf("dimacs line %d: bad ind var %q", lineNo, tok)
				}
				if v == 0 {
					break
				}
				if v < 0 {
					return nil, fmt.Errorf("dimacs line %d: negative ind var %d", lineNo, v)
				}
				f.SamplingSet = append(f.SamplingSet, Var(v))
				if v > f.NumVars {
					f.NumVars = v
				}
			}
		case strings.HasPrefix(line, "c"):
			// ordinary comment
		case strings.HasPrefix(line, "p"):
			fields := strings.Fields(line)
			if len(fields) != 4 || fields[1] != "cnf" {
				return nil, fmt.Errorf("dimacs line %d: malformed problem line %q", lineNo, line)
			}
			n, ok := parseLit(fields[2])
			if !ok || n < 0 {
				return nil, fmt.Errorf("dimacs line %d: bad var count %q", lineNo, fields[2])
			}
			if _, err := strconv.Atoi(fields[3]); err != nil {
				return nil, fmt.Errorf("dimacs line %d: bad clause count %q", lineNo, fields[3])
			}
			if n > f.NumVars {
				f.NumVars = n
			}
			declared = n
		case strings.HasPrefix(line, "x"):
			rest := strings.TrimSpace(line[1:])
			toks := strings.Fields(rest)
			var vars []Var
			rhs := true
			done := false
			for _, tok := range toks {
				x, ok := parseLit(tok)
				if !ok {
					return nil, fmt.Errorf("dimacs line %d: bad xor literal %q", lineNo, tok)
				}
				if x == 0 {
					done = true
					break
				}
				if x < 0 {
					rhs = !rhs
					x = -x
				}
				vars = append(vars, Var(x))
			}
			if !done {
				return nil, fmt.Errorf("dimacs line %d: xor clause not 0-terminated", lineNo)
			}
			f.AddXOR(vars, rhs)
		default:
			toks := strings.Fields(line)
			var lits []int
			done := false
			for _, tok := range toks {
				x, ok := parseLit(tok)
				if !ok {
					return nil, fmt.Errorf("dimacs line %d: bad literal %q", lineNo, tok)
				}
				if x == 0 {
					done = true
					break
				}
				lits = append(lits, x)
			}
			if !done {
				return nil, fmt.Errorf("dimacs line %d: clause not 0-terminated", lineNo)
			}
			f.AddClause(lits...)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if declared > f.NumVars {
		f.NumVars = declared
	}
	return f, nil
}

// parseLit parses a signed DIMACS integer of magnitude at most MaxVars.
func parseLit(tok string) (int, bool) {
	x, err := strconv.Atoi(tok)
	return x, err == nil && -MaxVars <= x && x <= MaxVars
}

// ParseDIMACSString is a convenience wrapper over ParseDIMACS.
func ParseDIMACSString(s string) (*Formula, error) {
	return ParseDIMACS(strings.NewReader(s))
}

// WriteDIMACS serializes the formula, emitting "c ind" lines for the
// sampling set and "x" lines for XOR clauses.
func WriteDIMACS(w io.Writer, f *Formula) error {
	bw := bufio.NewWriter(w)
	if f.SamplingSet != nil {
		const perLine = 10
		for i := 0; i < len(f.SamplingSet); i += perLine {
			end := i + perLine
			if end > len(f.SamplingSet) {
				end = len(f.SamplingSet)
			}
			fmt.Fprint(bw, "c ind")
			for _, v := range f.SamplingSet[i:end] {
				fmt.Fprintf(bw, " %d", v)
			}
			fmt.Fprintln(bw, " 0")
		}
	}
	fmt.Fprintf(bw, "p cnf %d %d\n", f.NumVars, len(f.Clauses))
	for _, c := range f.Clauses {
		for _, l := range c {
			fmt.Fprintf(bw, "%d ", l.DIMACS())
		}
		fmt.Fprintln(bw, "0")
	}
	for _, x := range f.XORs {
		fmt.Fprint(bw, "x")
		for i, v := range x.Vars {
			if i == 0 && !x.RHS {
				fmt.Fprintf(bw, "-%d ", v)
				continue
			}
			fmt.Fprintf(bw, "%d ", v)
		}
		fmt.Fprintln(bw, "0")
	}
	return bw.Flush()
}

// DIMACSString renders the formula as a DIMACS string.
func DIMACSString(f *Formula) string {
	var sb strings.Builder
	if err := WriteDIMACS(&sb, f); err != nil {
		panic(err) // strings.Builder never errors
	}
	return sb.String()
}
