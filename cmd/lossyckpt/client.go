// client.go is the lossyckpt front end of the lossyckptd daemon: flags
// and printing over server.Client, which speaks the wire protocol. Where
// `save`/`restore` operate on a local store directory, `client save`/
// `client restore` talk to a running daemon over HTTP — the daemon owns
// compression, the store and its durability protocol; the client just
// ships named fields.
//
//	lossyckpt client save    -addr host:port -tenant t -token s -in a.grd[,b.grd...] -step N [-codec none] [-deadline-ms 0]
//	lossyckpt client restore -addr host:port -tenant t -token s -out dir [-deadline-ms 0]
//	lossyckpt client inspect -addr host:port -tenant t -token s
//	lossyckpt client fsck    -addr host:port -tenant t -token s
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"lossyckpt/internal/ckpt"
	"lossyckpt/internal/server"
)

func cmdClient(args []string) error {
	if len(args) < 1 {
		return fmt.Errorf("usage: lossyckpt client <save|restore|inspect|fsck> [flags]")
	}
	switch args[0] {
	case "save":
		return cmdClientSave(args[1:])
	case "restore":
		return cmdClientRestore(args[1:])
	case "inspect":
		return cmdClientInspect(args[1:])
	case "fsck":
		return cmdClientFsck(args[1:])
	default:
		return fmt.Errorf("unknown client subcommand %q", args[0])
	}
}

// clientFlags are the connection flags every client subcommand shares.
type clientFlags struct {
	addr, tenant, token *string
	deadlineMs          *int
}

func addClientFlags(fs *flag.FlagSet) clientFlags {
	return clientFlags{
		addr:       fs.String("addr", "127.0.0.1:8777", "daemon address host:port"),
		tenant:     fs.String("tenant", "default", "tenant namespace"),
		token:      fs.String("token", "", "bearer token (required; also read from LOSSYCKPT_TOKEN)"),
		deadlineMs: fs.Int("deadline-ms", 0, "request deadline the daemon enforces (0 = daemon default)"),
	}
}

// client builds the daemon client the flags describe.
func (cf clientFlags) client() (*server.Client, error) {
	token := *cf.token
	if token == "" {
		token = os.Getenv("LOSSYCKPT_TOKEN")
	}
	if token == "" {
		return nil, fmt.Errorf("client: -token (or LOSSYCKPT_TOKEN) is required")
	}
	return &server.Client{
		BaseURL:  "http://" + *cf.addr,
		Tenant:   *cf.tenant,
		Token:    token,
		Deadline: time.Duration(*cf.deadlineMs) * time.Millisecond,
	}, nil
}

// fail names the subcommand on an error from the daemon client: a
// *server.StatusError carries the daemon's message and status (429/503/
// 504/507 are its typed refusals); transport errors pass through bare.
func fail(op string, err error) error {
	var se *server.StatusError
	if errors.As(err, &se) {
		return fmt.Errorf("client %s: %w", op, err)
	}
	return err
}

func cmdClientSave(args []string) error {
	fs := flag.NewFlagSet("client save", flag.ContinueOnError)
	cf := addClientFlags(fs)
	in := fs.String("in", "", "comma-separated .grd files (required); each file's base name becomes the variable name")
	step := fs.Int("step", 0, "application step this checkpoint belongs to")
	codec := fs.String("codec", "none", "checkpoint codec the daemon applies: "+ckpt.CodecNames)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" {
		return fmt.Errorf("client save: -in is required")
	}
	var fields []server.NamedField
	for _, path := range strings.Split(*in, ",") {
		fld, err := readField(path)
		if err != nil {
			return err
		}
		fields = append(fields, server.NamedField{Name: varNameFromPath(path), Field: fld})
	}
	c, err := cf.client()
	if err != nil {
		return err
	}
	sr, err := c.Save(*step, *codec, fields)
	if err != nil {
		return fail("save", err)
	}
	fmt.Printf("saved generation %d (step %d, codec %s): %d field(s), %d bytes\n",
		sr.Generation, sr.Step, sr.Codec, sr.Fields, sr.Size)
	if sr.ExpireAt != 0 {
		fmt.Printf("expires at %s\n", time.Unix(sr.ExpireAt, 0).Format(time.RFC3339))
	}
	return nil
}

func cmdClientRestore(args []string) error {
	fs := flag.NewFlagSet("client restore", flag.ContinueOnError)
	cf := addClientFlags(fs)
	out := fs.String("out", "", "output directory for restored .grd files (required)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *out == "" {
		return fmt.Errorf("client restore: -out is required")
	}
	c, err := cf.client()
	if err != nil {
		return err
	}
	r, err := c.Restore()
	if err != nil {
		return fail("restore", err)
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		return err
	}
	for _, nf := range r.Fields {
		path := filepath.Join(*out, nf.Name+".grd")
		if err := writeField(path, nf.Field); err != nil {
			return err
		}
		fmt.Printf("restored %s: %s\n", path, nf.Field)
	}
	fmt.Printf("generation %d (step %d, codec %s): %d field(s) recovered\n",
		r.Generation, r.Step, r.Codec, len(r.Fields))
	if r.Partial {
		fmt.Printf("partial recovery: %d frame(s) skipped\n", r.SkippedFrames)
	}
	return nil
}

func cmdClientInspect(args []string) error {
	fs := flag.NewFlagSet("client inspect", flag.ContinueOnError)
	cf := addClientFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	c, err := cf.client()
	if err != nil {
		return err
	}
	ir, err := c.Inspect()
	if err != nil {
		return fail("inspect", err)
	}
	fmt.Printf("tenant %s: %d generation(s), %d bytes stored", ir.Tenant, len(ir.Generations), ir.UsedBytes)
	if ir.QuotaBytes > 0 {
		fmt.Printf(" of %d quota", ir.QuotaBytes)
	}
	fmt.Println()
	if d := ir.Dedup; d != nil {
		fmt.Printf("  dedup: %d recipe generation(s), %d logical bytes as %d recipe + %d chunk bytes (%d chunks, ratio %.2fx)\n",
			d.Generations, d.LogicalBytes, d.RecipeBytes, d.ChunkBytes, d.Chunks, d.Ratio)
	}
	for _, g := range ir.Generations {
		fmt.Printf("  generation %d: step %d, %d bytes, crc %08x", g.Seq, g.Step, g.Size, g.CRC)
		if g.ExpireAt != 0 {
			fmt.Printf(", expires %s", time.Unix(g.ExpireAt, 0).Format(time.RFC3339))
		}
		fmt.Println()
	}
	return nil
}

func cmdClientFsck(args []string) error {
	fs := flag.NewFlagSet("client fsck", flag.ContinueOnError)
	cf := addClientFlags(fs)
	decode := fs.Bool("decode", false, "fully decode every entry server-side (paranoid)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	c, err := cf.client()
	if err != nil {
		return err
	}
	sr, err := c.Fsck(*decode)
	if err != nil {
		return fail("fsck", err)
	}
	fmt.Printf("checked %d generation(s)\n", sr.Checked)
	for _, seq := range sr.Quarantined {
		fmt.Printf("  generation %d corrupt: quarantined\n", seq)
	}
	for _, seq := range sr.Missing {
		fmt.Printf("  generation %d missing: dropped from index\n", seq)
	}
	for _, seq := range sr.Expired {
		fmt.Printf("  generation %d expired: pruned\n", seq)
	}
	if sr.Divergent > 0 {
		fmt.Printf("replica divergence after repair: %d generation(s)\n", sr.Divergent)
	}
	if !sr.Clean {
		return fmt.Errorf("client fsck: store was not clean")
	}
	fmt.Println("store is clean")
	return nil
}
