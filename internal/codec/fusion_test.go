package codec

import (
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

var (
	// asmFunc matches the header line of one function in -S output, e.g.
	// "nerve/internal/codec.fdct8 STEXT size=1234 ...".
	asmFunc = regexp.MustCompile(`^nerve/internal/codec\.(\S+) STEXT`)
	// asmFused matches the arm64 fused multiply-add/subtract opcodes:
	// FMADDS, FMSUBD, FNMADDS, FNMSUBD, ...
	asmFused = regexp.MustCompile(`^FN?M(ADD|SUB)[SD]$`)
)

// TestNoFusedMultiplyAdd compiles the package for arm64 and fails for any
// fused multiply-add in its assembly. The arm64 client must rebuild the
// same reference frames as the amd64 server, and amd64 never fuses, so one
// fused op in the transforms or the quantiser makes P-frames drift across
// a GOP. The cure is the package's fusion rule: wrap every product that
// feeds an add or subtract in float32(). The go command caches compiler
// output, so after a cold build this costs well under a second.
func TestNoFusedMultiplyAdd(t *testing.T) {
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go command not found:", err)
	}
	cmd := exec.Command(goBin, "build", "-gcflags=nerve/internal/codec=-S", ".")
	cmd.Env = append(os.Environ(), "GOOS=linux", "GOARCH=arm64", "CGO_ENABLED=0")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("arm64 build: %v\n%s", err, out)
	}

	fused := map[string][]string{} // function -> "OP at file:line"
	var fn string
	funcs, fmuls := 0, 0
	for _, line := range strings.Split(string(out), "\n") {
		if m := asmFunc.FindStringSubmatch(line); m != nil {
			fn = m[1]
			funcs++
			continue
		}
		// Instruction lines are "\t0x019c 00412 (/path/file.go:75)\tOPCODE\targs".
		f := strings.Split(line, "\t")
		if len(f) < 3 {
			continue
		}
		if strings.HasPrefix(f[2], "FMUL") {
			fmuls++
		}
		if asmFused.MatchString(f[2]) {
			pos := f[1][strings.LastIndexByte(f[1], '(')+1:]
			fused[fn] = append(fused[fn], f[2]+" at "+filepath.Base(strings.TrimSuffix(pos, ")")))
		}
	}
	// Guard against a vacuous pass if the -S format ever changes: the
	// transforms alone contain dozens of plain multiplies.
	if funcs == 0 || fmuls == 0 {
		t.Fatalf("no functions (%d) or FMUL instructions (%d) found in -S output; scanner out of date?", funcs, fmuls)
	}
	names := make([]string, 0, len(fused))
	for name := range fused {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		t.Errorf("%s: %d fused op(s): %s", name, len(fused[name]), strings.Join(fused[name], ", "))
	}
}
