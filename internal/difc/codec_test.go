package difc

import (
	"testing"
	"testing/quick"
)

func TestLabelBinaryRoundTrip(t *testing.T) {
	f := func(l Label) bool {
		data, err := l.MarshalBinary()
		if err != nil {
			return false
		}
		got, err := UnmarshalLabel(data)
		if err != nil {
			return false
		}
		return got.Equal(l)
	}
	if err := quick.Check(f, quickCfg(t, 100)); err != nil {
		t.Error(err)
	}
}

func TestUnmarshalLabelErrors(t *testing.T) {
	if _, err := UnmarshalLabel([]byte{1, 2}); err == nil {
		t.Error("short buffer accepted")
	}
	// Header claims 2 tags but body has only one.
	data, _ := NewLabel(1).MarshalBinary()
	data[3] = 2
	if _, err := UnmarshalLabel(data); err == nil {
		t.Error("length mismatch accepted")
	}
}

func TestLabelTextRoundTrip(t *testing.T) {
	f := func(l Label) bool {
		got, err := parseLabelText(l.formatText())
		return err == nil && got.Equal(l)
	}
	if err := quick.Check(f, quickCfg(t, 100)); err != nil {
		t.Error(err)
	}
}

func TestParseLabelText(t *testing.T) {
	l, err := parseLabelText(" 3 , 1 ,2 ")
	if err != nil {
		t.Fatal(err)
	}
	if !l.Equal(NewLabel(1, 2, 3)) {
		t.Errorf("parsed %v", l)
	}
	if _, err := parseLabelText("1,x"); err == nil {
		t.Error("bad tag accepted")
	}
	empty, err := parseLabelText("")
	if err != nil || !empty.IsEmpty() {
		t.Errorf("empty parse = %v, %v", empty, err)
	}
}

func TestCapSetTextRoundTrip(t *testing.T) {
	f := func(c CapSet) bool {
		got, err := ParseCapSetText(c.FormatText())
		return err == nil && got == c
	}
	if err := quick.Check(f, quickCfg(t, 100)); err != nil {
		t.Error(err)
	}
}

func TestParseCapSetTextErrors(t *testing.T) {
	if _, err := ParseCapSetText("no-separator"); err == nil {
		t.Error("missing separator accepted")
	}
	if _, err := ParseCapSetText("x|"); err == nil {
		t.Error("bad plus side accepted")
	}
	if _, err := ParseCapSetText("|x"); err == nil {
		t.Error("bad minus side accepted")
	}
}
