package cli

import (
	"testing"

	"rtcadapt/internal/video"
)

func TestBuildController(t *testing.T) {
	for _, name := range []string{"native-rc", "reset-only", "adaptive"} {
		c, err := BuildController(name, false)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if c.Name() != name {
			t.Errorf("controller %q name %q", name, c.Name())
		}
	}
	if _, err := BuildController("nope", false); err == nil {
		t.Error("unknown controller accepted")
	}
}

func TestParseContent(t *testing.T) {
	for _, c := range video.Classes() {
		got, err := ParseContent(c.String())
		if err != nil || got != c {
			t.Errorf("ParseContent(%q) = %v, %v", c.String(), got, err)
		}
	}
	if _, err := ParseContent("cartoons"); err == nil {
		t.Error("unknown content accepted")
	}
}
