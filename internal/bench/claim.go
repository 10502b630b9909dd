package bench

import (
	"fmt"

	"hopsfscl/internal/metrics"
)

// Claim is one of the paper's comparative claims (or a beyond-paper one),
// judged on the rows its experiment measured.
type Claim struct {
	ID       string
	Paper    string
	Measured string
	Holds    bool
	// Why is the reason the claim is recorded as not holding. It is empty
	// exactly for the claims recorded as holding, so a claim that holds with
	// a Why, or fails without one, has flipped.
	Why string
}

// Flipped reports whether the claim's verdict differs from the recorded one.
func (c Claim) Flipped() bool { return c.Holds == (c.Why != "") }

// Verdict renders the claim's verdict cell: ✅ holds, ⚠️ recorded as not
// holding (with its reason), ❌ flipped.
func (c Claim) Verdict() string {
	switch {
	case c.Flipped() && c.Holds:
		return "❌ holds, but is recorded as not holding: " + c.Why
	case c.Flipped():
		return "❌ does not hold"
	case c.Holds:
		return "✅"
	}
	return "⚠️ " + c.Why
}

// Flips names every claim whose verdict differs from the recorded one.
func Flips(claims []Claim) []string {
	var ids []string
	for _, c := range claims {
		if c.Flipped() {
			ids = append(ids, c.ID)
		}
	}
	return ids
}

// Section runs the experiment and renders its markdown section: a heading,
// the report, and a table of its claims.
func (e Experiment) Section(o ExpOptions) (string, []Claim, error) {
	report, claims, err := e.Run(o)
	if err != nil {
		return "", nil, fmt.Errorf("%s: %w", e.ID, err)
	}
	md := fmt.Sprintf("## %s — %s\n\n%s", e.ID, e.Title, report)
	if len(claims) > 0 {
		tbl := metrics.NewTable("claim", "paper", "measured", "verdict")
		for _, c := range claims {
			tbl.AddRow(c.ID, c.Paper, c.Measured, c.Verdict())
		}
		md += "\n" + tbl.Markdown()
	}
	return md, claims, nil
}

// fence wraps preformatted text, a report another package renders, in a
// markdown code block.
func fence(text string) string { return "```\n" + text + "```\n" }

// pct formats a fraction as a signed percentage ("−4.7 %").
func pct(f float64) string { return fmt.Sprintf("%+.1f %%", f*100) }
