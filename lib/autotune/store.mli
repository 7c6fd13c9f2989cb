(** Durable on-disk store for tuning state — what makes [tvmd]'s warm
    restarts real. Three kinds of state round-trip through one
    append-only block format, each block tagged with the isolation
    scope it belongs to ([tvmd]'s per-tenant or shared state):

    - [db.scoped] blocks: {!Tuner.Db} trial records, so an interrupted
      tuning run resumes from its measurement log ([spec.replay]);
    - [tuned.scoped] blocks: the compiler's tuned-configuration cache
      ({!Compiler.tuned_entries}), so repeat compiles skip tuning
      wholesale;
    - [cache] blocks: {!Compile_cache} feature-memo entries (features
      are the expensive part of prediction).

    A reader calls {!load_blocks} once and hands the block list to
    every loader, so each block is parsed, checksummed and (if bad)
    reported once however many scopes are restored from it.

    {2 Format}

    A store file is a sequence of self-describing blocks:

    {v
    #tvmstore v1 kind=<kind> records=<n> checksum=<16-hex FNV-1a 64>
    <record line 1>
    ...
    <record line n>
    v}

    A scoped block's first record is its scope tag ([String.escaped]);
    the tag is matched in escaped form, so no tag can raise. The
    checksum covers the record lines joined by ['\n']. Floats are
    serialized as ["%h"] hex literals, so every round trip is
    bit-exact and the determinism contracts (byte-identical journals
    at any [-j]) survive a restart.

    {2 Corruption policy}

    Loads never raise on bad data: a block with an unknown version, a
    short record count, a checksum mismatch, or an unparseable record
    is skipped whole, with a [stderr] warning and a
    [cache.load_rejected] metric increment. A truncated tail (the
    process died mid-flush) therefore costs exactly the unflushed
    block. Missing files load as empty.

    Untagged [db] and [tuned] blocks, written only by the first
    [tvmd], are no longer read. Compaction keeps them as blocks of an
    unruled kind, so they stay in the file unread; since they are a
    tuning cache, the only cost is re-tuning what they held. *)

type block = { b_kind : string; b_records : string list }

(** FNV-1a 64-bit hash of a string, as the 16-hex-digit checksum the
    block headers carry. *)
val checksum : string -> string

(** Append one block ([kind] must have no spaces; records no
    newlines). Creates the file if needed; flushes before returning. *)
val append_block : string -> kind:string -> string list -> unit

(** Every valid block in file order; invalid blocks are skipped with a
    warning and a [cache.load_rejected] metric bump. Missing file →
    []. *)
val load_blocks : string -> block list

(** Every record of every [kind] block, parsed by [parse], in file
    order. With [scope], only blocks whose first record is that scope's
    tag count, and the tag itself is not passed to [parse]. A block
    with any record [parse] raises on is skipped whole, with a warning
    and a [cache.load_rejected] bump; never raises. *)
val load_records :
  block list -> kind:string -> ?scope:string -> (string -> 'a) -> 'a list

(** {2 Trial logs (kind ["db.scoped"])} *)

(** Append [Db] records with index >= [from] (a previous flush's
    return) as one block tagged [scope]; returns the new high-water
    mark. No block is written when nothing is new. *)
val flush_db_scope : string -> scope:string -> from:int -> Tuner.Db.t -> int

(** Replay every ["db.scoped"] block tagged [scope] into [into];
    returns the number of records loaded. *)
val load_db_scope : block list -> scope:string -> into:Tuner.Db.t -> int

(** {2 Tuned-configuration caches (kind ["tuned.scoped"])} *)

(** Append tuned-cache entries (see {!Compiler.tuned_entries}) as one
    block tagged [scope]. Tuned entries sort by signature, not
    arrival, so the caller tracks which signatures are already on disk
    and passes only the delta; duplicate entries are harmless
    (first-wins on load). No block is written for an empty delta. *)
val append_tuned_scope :
  string -> scope:string -> (string * Cfg_space.config * float) list -> unit

(** All tuned entries from every ["tuned.scoped"] block tagged [scope],
    file order. *)
val load_tuned_scope :
  block list -> scope:string -> (string * Cfg_space.config * float) list

(** {2 Compile caches (kind ["cache"])} *)

(** Serialize a cache's entries (features and invalid verdicts;
    programs are dropped) as one block tagged with [scope], skipping
    the first [from] entries (a previous save's return — entries are
    insertion-ordered, so this is the incremental-flush protocol).
    Returns the cache's current entry count. No block is written when
    nothing is new. *)
val save_cache : string -> scope:string -> ?from:int -> Compile_cache.t -> int

(** Merge every [cache] block tagged [scope] into [into]; returns
    entries added. *)
val load_cache : block list -> scope:string -> into:Compile_cache.t -> int

(** {2 Compaction}

    An append-only store accumulates superseded records: refreshed
    [done] envelopes, duplicate tuned entries, cache entries re-saved
    across restarts. [compact] rewrites the live contents to a
    temporary file and atomically renames it over the original, so a
    crash at any instant leaves either the old file or the new one —
    never a half-written store.

    What "live" means is per record kind, supplied as rules: keep
    every record (trial logs are replay history), the first record per
    key (first-wins loaders: tuned entries, cache entries) or the last
    (last-wins loaders: [tvmd]'s [done] records). A record's key is
    its first tab-separated field; scoped kinds dedupe within their
    scope tag. Blocks of the same kind (and scope) coalesce into one,
    preserving record order, and corrupt blocks are dropped — loading
    the compacted file yields exactly what loading the original did. *)

type keep =
  | Keep_all  (** coalesce only; every record survives *)
  | First_per_key  (** first-wins loaders *)
  | Last_per_key  (** last-wins loaders *)

type rule = { rl_kind : string; rl_scoped : bool; rl_keep : keep }

(** Rules for the kinds this module owns: [db.scoped] keeps all,
    [tuned.scoped] and [cache] keep first per key. Kinds without a rule
    (a caller's private blocks) keep every record. *)
val default_rules : rule list

exception Injected_crash
(** Raised by {!compact} at the requested fault-injection point
    (test-only). *)

(** [compact path] rewrites the store; returns [Some (before_bytes,
    after_bytes)] or [None] when the file is missing or smaller than
    [threshold_bytes]. [crash_after_bytes n] dies (raises
    {!Injected_crash}) after writing [n] bytes of the temporary file;
    [crash_before_rename] dies after the full write but before the
    atomic rename — both leave the original untouched, and a later
    compact overwrites the stale temporary. *)
val compact :
  ?rules:rule list ->
  ?threshold_bytes:int ->
  ?crash_after_bytes:int ->
  ?crash_before_rename:bool ->
  string ->
  (int * int) option
