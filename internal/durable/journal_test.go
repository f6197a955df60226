package durable

import "testing"

// TestJournalCloseTwice closes a journal twice: the second Close is a
// no-op, so a server closed by its owner and again by a deferred cleanup
// reports no error.
func TestJournalCloseTwice(t *testing.T) {
	nop := func([]byte) error { return nil }
	j, _, err := OpenJournal(JournalOptions{FS: NewMemFS(), Dir: "d"}, nop, nop)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Commit([]byte("r"), func() error { return nil }, nil); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatalf("first Close: %v", err)
	}
	if err := j.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}
