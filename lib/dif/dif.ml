(** The DIF machine of Nair & Hopkins [9], the baseline of the paper's
    Figure 9 (§3.12, §4.5).

    DIF differs from the DTSVLIW in its scheduler and renaming model:

    - {b greedy scheduling}: a hardware table records the earliest long
      instruction in which each resource is available; an incoming
      instruction is placed in the earliest long instruction its inputs
      allow (no move-up pipeline, no candidate instructions);
    - {b register instances}: every destination is renamed to a fresh
      instance of its architectural register (up to 4 instances each, i.e.
      96 extra integer and 96 floating-point registers) and consumers read
      instances through a map table — modelled here as per-op source
      forwarding, which the shared VLIW Engine already supports;
    - {b exit maps}: each exit point (every branch, plus the block end)
      carries a map committing the live instances to the architectural
      registers; we materialise exit maps as tag-gated copy groups in
      auxiliary slots (they occupy no issue slot and no issue bandwidth,
      matching the map-table hardware), and account their 19 bytes per exit
      in the DIF cache size;
    - {b block-unit cache}: the DIF cache transfers whole blocks; the cache
      organisation (512 sets × 2 ways of 6x6 blocks in Figure 9) is the
      same {!Dts_mem.Blockcache} used for the VLIW Cache.

    Conservative modelling choice: the DIF paper does not describe its
    memory-aliasing recovery; we give DIF the same order-field detection and
    block-granularity checkpointing as the DTSVLIW (a strict upgrade, so the
    comparison cannot be biased in the DTSVLIW's favour by this part). *)

open Dts_sched.Schedtypes

type config = {
  width : int;
  height : int;
  nwindows : int;
  instances_per_reg : int;  (** 4 in [9] *)
  exit_map_bytes : int;  (** 19 bytes per exit point in [9] *)
  latencies : Dts_isa.Instr.latencies;
}

let default_config =
  {
    width = 6;
    height = 6;
    nwindows = 32;
    instances_per_reg = 4;
    exit_map_bytes = 19;
    latencies = Dts_isa.Instr.unit_latencies;
  }

type t = {
  cfg : config;
  mutable lis : li array;  (** up to [height]; slots = width + aux *)
  mutable n_lis : int;
  mutable max_li : int;  (** frontier: highest li index holding an op *)
  avail : (Dts_isa.Storage.t, int) Hashtbl.t;
      (** earliest li at which a position's current value can be read *)
  imap : (Dts_isa.Storage.t, rref) Hashtbl.t;  (** current instance map *)
  inst_count : (Dts_isa.Storage.t, int) Hashtbl.t;
  mutable mem_stores : (int * int * int) list;  (** addr, size, li *)
  mutable last_store_li : int;
  mutable last_load_li : int;
  mutable last_branch_li : int;
  mutable first_addr : int option;
  mutable entry_cwp : int;
  mutable order_ctr : int;
  rr_ctr : int array;
  mutable uid_ctr : int;
  mutable exits : int;  (** exit points of the current block *)
  (* lifetime stats *)
  mutable blocks_built : int;
  mutable total_exits : int;
  mutable cache_bytes : int;  (** DIF-accounted bytes of all built blocks *)
}

let create cfg =
  {
    cfg;
    lis = [||];
    n_lis = 0;
    max_li = 0;
    avail = Hashtbl.create 64;
    imap = Hashtbl.create 64;
    inst_count = Hashtbl.create 64;
    mem_stores = [];
    last_store_li = -1;
    last_load_li = -1;
    last_branch_li = -1;
    first_addr = None;
    entry_cwp = 0;
    order_ctr = 0;
    rr_ctr = Array.make 4 0;
    uid_ctr = 0;
    exits = 0;
    blocks_built = 0;
    total_exits = 0;
    cache_bytes = 0;
  }

let aux_slots cfg = cfg.width * cfg.height

let reset_block t =
  t.lis <- [||];
  t.n_lis <- 0;
  t.max_li <- 0;
  Hashtbl.reset t.avail;
  Hashtbl.reset t.imap;
  Hashtbl.reset t.inst_count;
  t.mem_stores <- [];
  t.last_store_li <- -1;
  t.last_load_li <- -1;
  t.last_branch_li <- -1;
  t.first_addr <- None;
  t.order_ctr <- 0;
  Array.fill t.rr_ctr 0 4 0;
  t.exits <- 0

let li_at t i =
  while t.n_lis <= i do
    let li = li_create (t.cfg.width + aux_slots t.cfg) in
    t.lis <- Array.append t.lis [| li |];
    t.n_lis <- t.n_lis + 1
  done;
  t.lis.(i)

let rr_kind_of : Dts_isa.Storage.t -> rr_kind option = function
  | Int_reg _ -> Some K_int
  | Fp_reg _ -> Some K_fp
  | Flags -> Some K_flag
  | Win | Mem _ | Ren _ -> None

let alloc_rr t kind =
  let i = rr_kind_index kind in
  let idx = t.rr_ctr.(i) in
  t.rr_ctr.(i) <- idx + 1;
  { kind; ridx = idx }

(* a free issue slot (index < width) in li [i] for FU class [fu];
   homogeneous units as in [9]'s "four homogeneous units + 2 branch" — we
   treat branch ops as needing one of the last two issue slots *)
let find_issue_slot t li (fu : Dts_isa.Instr.fu_class) =
  let width = t.cfg.width in
  let lo, hi =
    match fu with
    | Dts_isa.Instr.Fu_br -> (max 0 (width - 2), width - 1)
    | Fu_int | Fu_mem | Fu_fp -> (0, max 0 (width - 3))
  in
  let rec go k =
    if k > hi then None else if li.slots.(k) = None then Some k else go (k + 1)
  in
  go lo

let find_aux_slot t li =
  let rec go k =
    if k >= Array.length li.slots then
      invalid_arg "Dif: out of auxiliary exit-map slots"
    else if li.slots.(k) = None then k
    else go (k + 1)
  in
  go t.cfg.width

(* materialise the current instance map as a tag-gated commit group *)
let emit_exit_map t li tag =
  let moves =
    Hashtbl.fold (fun pos rr acc -> (rr, T_arch pos) :: acc) t.imap []
  in
  if moves <> [] then begin
    let k = find_aux_slot t li in
    li_fill li k (Copy (make_copy ~moves ~order:(-1) ~from:0 ()), tag)
  end;
  t.exits <- t.exits + 1

(** Place one retired instruction greedily. [`Full] when it does not fit in
    the block. *)
let insert t (r : Dts_primary.Primary.retired) =
  let cfg = t.cfg in
  if t.first_addr = None then begin
    t.first_addr <- Some r.addr;
    t.entry_cwp <- r.cwp
  end;
  (* read/write sets decoded once by the Primary at retirement *)
  let arch_reads, arch_writes = r.rwsets in
  (* instance exhaustion ends the block (2 extra specifier bits in [9]) *)
  if
    List.exists
      (fun w ->
        match rr_kind_of w with
        | Some _ ->
          (match Hashtbl.find_opt t.inst_count w with Some n -> n | None -> 0)
          >= cfg.instances_per_reg
        | None -> false)
      arch_writes
  then `Full
  else begin
    (* source forwarding through the map table *)
    let subs = ref [] in
    let reads =
      List.map
        (fun p ->
          match Hashtbl.find_opt t.imap p with
          | Some rr ->
            subs := (p, rr) :: !subs;
            storage_of_rref rr
          | None -> p)
        arch_reads
    in
    (* earliest li by dependences *)
    let dep = ref 0 in
    List.iter
      (fun p ->
        match Hashtbl.find_opt t.avail p with
        | Some li -> dep := max !dep li
        | None -> ())
      reads;
    (* loads wait for overlapping earlier stores *)
    (match r.mem with
    | Some (a, sz) when Dts_isa.Instr.is_load r.instr ->
      List.iter
        (fun (sa, ssz, sli) ->
          if a < sa + ssz && sa < a + sz then dep := max !dep (sli + 1))
        t.mem_stores
    | _ -> ());
    let is_branch = Dts_isa.Instr.is_conditional_ctrl r.instr in
    (* frontier rules: branches wait for every prior op (their exit map must
       be complete); architectural commits (stores, save/restore) must not
       float above an unresolved branch, and stores keep memory order *)
    if is_branch then dep := max !dep t.max_li;
    if Dts_isa.Instr.is_store r.instr then
      dep :=
        max !dep
          (max (t.last_store_li + 1) (max t.last_load_li t.last_branch_li));
    (match r.instr with
    | Dts_isa.Instr.Save _ | Restore _ -> dep := max !dep t.last_branch_li
    | _ -> ());
    (* find a long instruction with a free issue slot *)
    let fu = Dts_isa.Instr.fu_class r.instr in
    let rec place i =
      if i >= cfg.height then None
      else
        let li = li_at t i in
        match find_issue_slot t li fu with
        | Some k -> Some (i, li, k)
        | None -> place (i + 1)
    in
    match place !dep with
    | None -> `Full
    | Some (i, li, k) ->
      t.uid_ctr <- t.uid_ctr + 1;
      let is_mem = Dts_isa.Instr.is_mem r.instr in
      let order =
        if is_mem then begin
          let o = t.order_ctr in
          t.order_ctr <- o + 1;
          o
        end
        else -1
      in
      (* rename destinations to fresh instances *)
      let redirect =
        List.filter_map
          (fun w ->
            match rr_kind_of w with
            | Some kind ->
              let rr = alloc_rr t kind in
              Hashtbl.replace t.imap w rr;
              Hashtbl.replace t.inst_count w
                (1
                +
                match Hashtbl.find_opt t.inst_count w with
                | Some n -> n
                | None -> 0);
              Some (w, rr)
            | None -> None)
          arch_writes
      in
      let sop =
        make_sop ~uid:t.uid_ctr ~instr:r.instr ~addr:r.addr ~cwp:r.cwp ~reads
          ~arch_writes ~obs_taken:r.taken ~obs_next_pc:r.next_pc
          ~obs_mem:r.mem ~order ~cross:is_mem ~redirect ~subs:!subs ~fu
      in
      let tag = li_cur_tag li in
      li_fill li k (Op sop, tag);
      t.max_li <- max t.max_li i;
      (* availability of the results: [latency] long instructions later *)
      let lat = Dts_isa.Instr.latency cfg.latencies r.instr in
      List.iter
        (fun w ->
          Hashtbl.replace t.avail w (i + lat);
          match List.assoc_opt w redirect with
          | Some rr -> Hashtbl.replace t.avail (storage_of_rref rr) (i + lat)
          | None -> ())
        arch_writes;
      if is_branch then begin
        emit_exit_map t li tag;
        li.n_branches <- li.n_branches + 1;
        t.last_branch_li <- max t.last_branch_li i
      end;
      if Dts_isa.Instr.is_store r.instr then begin
        t.last_store_li <- max t.last_store_li i;
        match r.mem with
        | Some (a, sz) -> t.mem_stores <- (a, sz, i) :: t.mem_stores
        | None -> ()
      end;
      if Dts_isa.Instr.is_load r.instr then
        t.last_load_li <- max t.last_load_li i;
      `Ok
  end

(** Finish the block: emit the fall-through exit map and freeze. *)
let finish_block t ~nba_addr =
  if t.first_addr = None then None
  else begin
    let last = max 0 t.max_li in
    let li = li_at t last in
    emit_exit_map t li (li_cur_tag li);
    let lis = Array.sub t.lis 0 (t.max_li + 1) in
    let n_slots_filled =
      Array.fold_left
        (fun a li ->
          a
          + li_fold
              (fun n _ op _ -> match op with Op _ -> n + 1 | Copy _ -> n)
              0 li)
        0 lis
    in
    let max_li_ops = Array.fold_left (fun a li -> max a (li_count li)) 0 lis in
    let block =
      {
        tag_addr = Option.get t.first_addr;
        entry_cwp = t.entry_cwp;
        lis;
        nba_addr;
        nba_idx = Array.length lis - 1;
        rr_counts = Array.copy t.rr_ctr;
        n_slots_filled;
        n_copies = 0;
        max_li_ops;
      }
    in
    t.blocks_built <- t.blocks_built + 1;
    t.total_exits <- t.total_exits + t.exits;
    t.cache_bytes <-
      t.cache_bytes
      + (t.cfg.width * t.cfg.height * Dts_isa.Instr.decoded_bytes)
      + (t.exits * t.cfg.exit_map_bytes);
    reset_block t;
    Some block
  end

(** A DIF machine: the shared Primary Processor, VLIW Engine, block cache
    and test-mode machinery of {!Dts_core.Machine}, driven by the greedy DIF
    scheduler. Returns the machine and an accessor for DIF-specific
    statistics. *)
let machine ?tracer ~(machine_cfg : Dts_core.Config.t) program =
  let { Dts_sched.Sched_unit.width; height; nwindows; latencies; _ } =
    machine_cfg.sched
  in
  let cfg = { default_config with width; height; nwindows; latencies } in
  let sched = ref None in
  let m =
    Dts_core.Machine.create ?tracer
      ~scheduler:(fun () ->
        let u = create cfg in
        sched := Some u;
        {
          Dts_core.Machine.s_tick = (fun () -> ());
          s_insert = (fun r -> insert u r);
          s_finish = (fun ~nba_addr -> finish_block u ~nba_addr);
        })
      machine_cfg program
  in
  (m, Option.get !sched)

(** Machine configuration for the Figure 9 comparison: 6x6 blocks, 4KB
    instruction and data caches with 2-cycle miss penalties, 512x2-block
    code cache. *)
let fig9_machine_cfg () =
  let base = Dts_core.Config.ideal ~width:6 ~height:6 () in
  {
    base with
    icache = Dts_core.Config.Sized { kb = 4; line = 128; assoc = 2; penalty = 2 };
    dcache = Sized { kb = 4; line = 32; assoc = 1; penalty = 2 };
    (* 512 sets x 2 ways of 6x6 blocks = 216KB of decoded instructions *)
    vliw_cache = { kb = 216; assoc = 2 };
    next_li_penalty = 0;
  }
