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
// update took effect between the delete and the create. A delete's edit
// takes whatever inode holds the name and keeps it as the pre-image.
func TestInodeEditAimsAtResolvedInode(t *testing.T) {
	const mtime = 3 * time.Second
	committed := &Inode{ID: 5, Parent: 1, Name: "d", Dir: true, Perm: 0o755, Owner: "hdfs"}
	for _, c := range []struct {
		edit inodeEdit
		ok   func(*Inode) bool
	}{
		{inodeEdit{kind: editPerm, perm: 0o700}, func(n *Inode) bool { return n.Perm == 0o700 && n.Owner == "hdfs" }},
		{inodeEdit{kind: editOwner, owner: "u"}, func(n *Inode) bool { return n.Owner == "u" && n.Perm == 0o755 }},
		{inodeEdit{kind: editBlocks, blocks: []blocks.BlockID{4}, size: 9}, func(n *Inode) bool {
			return slices.Equal(n.Blocks, []blocks.BlockID{4}) && n.Size == 9
		}},
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
	del := inodeEdit{kind: editDelete}
	if v, err := del.Edit(committed); v != nil || err != nil || del.pre != committed {
		t.Errorf("delete's edit: %v, %v, pre-image %v", v, err, del.pre)
	}
}
