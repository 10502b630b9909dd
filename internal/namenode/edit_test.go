package namenode

import (
	"errors"
	"slices"
	"testing"
	"time"

	"hopsfscl/internal/blocks"
)

// TestInodeEditAimsAtResolvedInode: an update's edit sets its field and the
// mtime on a copy of the committed inode, leaving the committed one as it
// was, and answers ErrNotFound when the name holds another inode than the
// one its resolve found — that one was deleted after the resolve, so the
// update took effect between the delete and the create. An attach of
// blocks answers ErrNotFound on a directory too. A delete's edit takes
// whatever inode holds the name and keeps and returns it as the pre-image;
// a move's edit takes only the resolved inode and returns nothing.
func TestInodeEditAimsAtResolvedInode(t *testing.T) {
	const mtime = 3 * time.Second
	committed := &Inode{ID: 5, Parent: 1, Name: "d", Dir: true, Perm: 0o755, Owner: "hdfs"}
	for _, c := range []struct {
		edit inodeEdit
		ok   func(*Inode) bool
	}{
		{inodeEdit{kind: editPerm, perm: 0o700}, func(n *Inode) bool { return n.Perm == 0o700 && n.Owner == "hdfs" }},
		{inodeEdit{kind: editOwner, owner: "u"}, func(n *Inode) bool { return n.Owner == "u" && n.Perm == 0o755 }},
		{inodeEdit{kind: editQuota, nsQuota: 10, ssQuota: 20}, func(n *Inode) bool { return n.QuotaNS == 10 && n.QuotaSS == 20 }},
	} {
		e := c.edit
		e.id, e.mtime = committed.ID, mtime
		v, err := e.Edit(committed)
		next, _ := v.(*Inode)
		if err != nil || next == nil || next == committed || !c.ok(next) || next.Mtime != mtime || next.ID != committed.ID {
			t.Errorf("edit %d: got %+v, %v", e.kind, next, err)
		}
		e.id = committed.ID + 1
		if _, err := e.Edit(committed); !errors.Is(err, ErrNotFound) {
			t.Errorf("edit %d aimed at inode %d applied to inode %d: %v, want ErrNotFound", e.kind, e.id, committed.ID, err)
		}
	}
	if committed.Perm != 0o755 || committed.Owner != "hdfs" || committed.QuotaNS != 0 || committed.Blocks != nil {
		t.Errorf("the edits changed the committed inode: %+v", committed)
	}
	attach := inodeEdit{kind: editBlocks, id: committed.ID, blocks: []blocks.BlockID{4}, size: 9}
	if _, err := attach.Edit(committed); !errors.Is(err, ErrNotFound) {
		t.Errorf("attach to a directory: %v, want ErrNotFound", err)
	}
	file := *committed
	file.Dir = false
	if v, err := attach.Edit(&file); err != nil || !slices.Equal(v.(*Inode).Blocks, attach.blocks) || v.(*Inode).Size != 9 {
		t.Errorf("attach to the file: %v, %v", v, err)
	}
	attach.id++
	if _, err := attach.Edit(&file); !errors.Is(err, ErrNotFound) {
		t.Errorf("attach aimed at inode %d applied to inode %d: %v, want ErrNotFound", attach.id, file.ID, err)
	}
	del := inodeEdit{kind: editDelete}
	if v, err := del.Edit(committed); v != committed || err != nil || del.pre != committed {
		t.Errorf("delete's edit: %v, %v, pre-image %v", v, err, del.pre)
	}
	move := inodeEdit{kind: editMove, pre: committed}
	if v, err := move.Edit(committed); v != nil || err != nil {
		t.Errorf("move's edit of its own inode: %v, %v", v, err)
	}
	if _, err := move.Edit(&file); !errors.Is(err, errMoved) {
		t.Errorf("move's edit of another value: %v, want errMoved", err)
	}
}
