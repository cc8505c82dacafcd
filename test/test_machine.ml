(* End-to-end DTSVLIW machine tests. Every run executes in test mode: the
   machine co-simulates the golden model and raises Test_mode_mismatch on
   any architectural divergence, so a passing test validates the Primary
   Processor, the Scheduler Unit and the VLIW Engine together. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let run_source ?cfg src =
  let cfg = match cfg with Some c -> c | None -> Dts_core.Config.ideal () in
  let program = Dts_tinyc.Tinyc.compile src in
  let m = Dts_core.Machine.create cfg program in
  let n = Dts_core.Machine.run m in
  (m, program, n)

let run_asm ?cfg src =
  let cfg = match cfg with Some c -> c | None -> Dts_core.Config.ideal () in
  let program = Dts_asm.Assembler.assemble src in
  let m = Dts_core.Machine.create cfg program in
  let n = Dts_core.Machine.run m in
  (m, program, n)

let global (m : Dts_core.Machine.t) program name =
  Dts_mem.Memory.read m.st.mem
    ~addr:(Dts_asm.Program.symbol program ("g_" ^ name))
    ~size:4 ~signed:true

(* the paper's Figure 2 kernel: vector sum *)
let vector_sum_asm n =
  Printf.sprintf
    {|
        .data
arr:    .space %d
        .text
start:  mov   0, %%o0          ! sum
        set   arr, %%o1
        mov   0, %%o2
        set   %d, %%l0
init:   st    %%o2, [%%o1+%%o2]
        add   %%o2, 4, %%o2
        cmp   %%o2, %%l0
        bl    init
        mov   0, %%o2
loop:   ld    [%%o1+%%o2], %%o3
        add   %%o0, %%o3, %%o0
        add   %%o2, 4, %%o2
        cmp   %%o2, %%l0
        bl    loop
        halt
|}
    (4 * n) (4 * n)

let test_vector_sum () =
  let m, _, _ = run_asm (vector_sum_asm 100) in
  (* sum of 0,4,8,...,396 = arr[i] holds i*4 *)
  check_int "sum" (Array.init 100 (fun i -> 4 * i) |> Array.fold_left ( + ) 0)
    (Dts_isa.State.get_reg m.st ~cwp:m.st.cwp 8);
  check_bool "used the VLIW engine" true (m.vliw_cycles > 0);
  check_bool "built blocks" true ((Dts_core.Machine.stats m).blocks_flushed > 0)

let test_vector_sum_beats_primary_alone () =
  (* IPC with scheduling must exceed 1/primary-cycles; for this loop the
     DTSVLIW should comfortably exceed 1 instruction per cycle *)
  let m, _, n = run_asm (vector_sum_asm 200) in
  let ipc = float_of_int n /. float_of_int m.cycles in
  check_bool
    (Printf.sprintf "ipc %.2f > 1.0" ipc)
    true (ipc > 1.0)

let test_fib_cosim () =
  let m, p, _ =
    run_source
      {| int r;
         int fib(int n) { if (n < 2) { return n; } return fib(n-1) + fib(n-2); }
         int main() { r = fib(14); return 0; } |}
  in
  check_int "fib(14)" 377 (global m p "r")

let test_sort_cosim () =
  let m, p, _ =
    run_source
      {| int a[64];
         int r;
         int main() {
           int i; int j; int t;
           for (i = 0; i < 64; i = i + 1) { a[i] = (i * 37 + 11) % 64; }
           for (i = 0; i < 64; i = i + 1) {
             for (j = i + 1; j < 64; j = j + 1) {
               if (a[j] < a[i]) { t = a[i]; a[i] = a[j]; a[j] = t; }
             }
           }
           r = 1;
           for (i = 1; i < 64; i = i + 1) { if (a[i] < a[i-1]) { r = 0; } }
           return 0;
         } |}
  in
  check_int "sorted" 1 (global m p "r")

let test_pointer_chase_aliasing_paths () =
  (* stores through computed indices next to loads: exercises the memory
     dependency and (potentially) aliasing machinery *)
  let m, p, _ =
    run_source
      {| int a[32];
         int r;
         int main() {
           int i; int s;
           for (i = 0; i < 32; i = i + 1) { a[i] = i; }
           s = 0;
           for (i = 0; i < 1000; i = i + 1) {
             a[(i * 7) % 32] = a[(i * 3) % 32] + 1;
             s = s + a[(i * 5) % 32];
           }
           r = s;
           return 0;
         } |}
  in
  check_bool "finished with consistent state" true (global m p "r" <> 0)

let test_deep_recursion_window_traps () =
  (* window overflow traps make save non-schedulable occurrences and can
     raise block exceptions in VLIW mode *)
  let m, p, _ =
    run_source ~cfg:(Dts_core.Config.ideal ())
      {| int r;
         int down(int n, int acc) {
           if (n == 0) { return acc; }
           return down(n - 1, acc + n);
         }
         int main() {
           int i; int s;
           s = 0;
           for (i = 0; i < 20; i = i + 1) { s = s + down(60, 0); }
           r = s;
           return 0;
         } |}
  in
  check_int "sum" (20 * (60 * 61 / 2)) (global m p "r")

let test_flags_renaming () =
  (* many cc-writing instructions and branches in flight *)
  let m, p, _ =
    run_source
      {| int r;
         int main() {
           int i; int a; int b; int c;
           a = 0; b = 0; c = 0;
           for (i = 0; i < 2000; i = i + 1) {
             if (i % 3 == 0) { a = a + 1; }
             if (i % 5 == 0) { b = b + 1; }
             if (i % 7 == 0) { c = c + 2; }
           }
           r = a * 10000 + b * 100 + c;
           return 0;
         } |}
  in
  let expect =
    let a = ref 0 and b = ref 0 and c = ref 0 in
    for i = 0 to 1999 do
      if i mod 3 = 0 then incr a;
      if i mod 5 = 0 then incr b;
      if i mod 7 = 0 then c := !c + 2
    done;
    (!a * 10000) + (!b * 100) + !c
  in
  check_int "flag-heavy loop" expect (global m p "r")

let test_geometry_affects_ipc () =
  let src = vector_sum_asm 400 in
  let run w h =
    let m, _, n = run_asm ~cfg:(Dts_core.Config.ideal ~width:w ~height:h ()) src in
    float_of_int n /. float_of_int m.cycles
  in
  let ipc_small = run 2 2 in
  let ipc_big = run 8 8 in
  check_bool
    (Printf.sprintf "8x8 (%.2f) >= 2x2 (%.2f)" ipc_big ipc_small)
    true (ipc_big >= ipc_small)

let test_feasible_machine_runs () =
  let m, p, _ =
    run_source ~cfg:(Dts_core.Config.feasible ())
      {| int r;
         int main() {
           int i; int s;
           s = 0;
           for (i = 0; i < 3000; i = i + 1) { s = s + (i ^ (s << 1)) % 97; }
           r = s;
           return 0;
         } |}
  in
  check_bool "completed" true (global m p "r" <> 1234567);
  check_bool "vliw fraction sane" true
    (Dts_core.Machine.vliw_cycle_fraction m >= 0.0
    && Dts_core.Machine.vliw_cycle_fraction m <= 1.0)

let test_vliw_cycle_fraction_high_for_loops () =
  let m, _, _ = run_asm (vector_sum_asm 2000) in
  let f = Dts_core.Machine.vliw_cycle_fraction m in
  check_bool (Printf.sprintf "vliw fraction %.2f > 0.5" f) true (f > 0.5)

let test_tiny_vliw_cache_still_correct () =
  (* a 1-block-capacity cache forces constant eviction and rebuilds *)
  let cfg =
    let c = Dts_core.Config.ideal () in
    { c with vliw_cache = { kb = 1; assoc = 1 } }
  in
  let m, p, _ =
    run_source ~cfg
      {| int r;
         int f(int x) { return x * 3 + 1; }
         int main() {
           int i; int s;
           s = 0;
           for (i = 0; i < 500; i = i + 1) { s = s + f(i); }
           r = s;
           return 0;
         } |}
  in
  let expect = ref 0 in
  for i = 0 to 499 do
    expect := !expect + (i * 3) + 1
  done;
  check_int "result" !expect (global m p "r")

let test_no_renaming_still_correct () =
  let cfg =
    let c = Dts_core.Config.ideal () in
    { c with sched = { c.sched with renaming = false } }
  in
  let m, p, _ =
    run_source ~cfg
      {| int r;
         int main() {
           int i; int s;
           s = 1;
           for (i = 0; i < 300; i = i + 1) { s = (s * 5 + i) % 8191; }
           r = s;
           return 0;
         } |}
  in
  check_bool "completed" true (global m p "r" >= 0)

let test_renaming_improves_ipc () =
  let src = vector_sum_asm 500 in
  let ipc renaming =
    let c = Dts_core.Config.ideal () in
    let cfg = { c with sched = { c.sched with renaming } } in
    let m, _, n = run_asm ~cfg src in
    float_of_int n /. float_of_int m.cycles
  in
  let with_r = ipc true and without_r = ipc false in
  check_bool
    (Printf.sprintf "renaming %.2f >= none %.2f" with_r without_r)
    true (with_r >= without_r)

let test_heterogeneous_fu_constraint () =
  let m, p, _ =
    run_source ~cfg:(Dts_core.Config.feasible ())
      {| int a[16];
         int r;
         int main() {
           int i; int s;
           for (i = 0; i < 16; i = i + 1) { a[i] = i * i; }
           s = 0;
           for (i = 0; i < 16; i = i + 1) { s = s + a[i]; }
           r = s;
           return 0;
         } |}
  in
  check_int "sum of squares" 1240 (global m p "r")

let test_data_store_list_scheme () =
  (* §3.11's alternative scheme must compute identical architectural
     results; the co-simulation checks every block boundary *)
  let cfg =
    {
      (Dts_core.Config.ideal ()) with
      store_scheme = Dts_vliw.Engine.Data_store_list;
    }
  in
  let m, p, _ =
    run_source ~cfg
      {| int a[32];
         int r;
         int main() {
           int i; int s;
           for (i = 0; i < 32; i = i + 1) { a[i] = i; }
           s = 0;
           for (i = 0; i < 800; i = i + 1) {
             a[(i * 7) % 32] = a[(i * 3) % 32] + 1;
             s = s + a[(i * 5) % 32];
           }
           r = s;
           return 0;
         } |}
  in
  check_bool "store-list scheme verified" true (global m p "r" <> 0);
  check_bool "data store list used" true
    (m.engine.stats.max_data_store_list > 0)

(* Sub-word stores under the data-store-list scheme: inside one block, a
   byte and a halfword store land in a word the block already stored, and
   a byte store lands in a word that is otherwise only in memory. Loads of
   both words then mix bytes from several buffered stores, or buffered and
   memory bytes. With [alias], a store through a roving index can hit
   a word a hoisted load already read: the block then raises an aliasing
   exception and is rolled back with sub-word data in its list. *)
let subword_store_list_asm ~alias =
  Printf.sprintf
    {|
        .data
buf:    .word 0x11223344, 0x55667788, 0x99aabbcc, 0, 0, 0
idx:    .word 0
        .text
start:  set   buf, %%o1
        set   idx, %%l1
        mov   0, %%o0           ! checksum
        mov   0, %%o2           ! i
        set   300, %%l0
loop:   add   %%o2, 0x5a, %%o3
        st    %%o2, [%%o1]      ! word x = i
        stb   %%o3, [%%o1+1]    ! byte 1 of the buffered word x
        sth   %%o3, [%%o1+2]    ! halfword 2-3 of the buffered word x
        stb   %%o2, [%%o1+5]    ! byte 5 of y: bytes 4, 6, 7 stay in memory
%s
        ld    [%%o1], %%o4      ! x: three buffered stores
        add   %%o0, %%o4, %%o0
        ld    [%%o1+4], %%o4    ! y: one buffered byte among three memory bytes
        xor   %%o0, %%o4, %%o0
        ldsb  [%%o1+1], %%o4
        add   %%o0, %%o4, %%o0
        lduh  [%%o1+4], %%o4    ! a memory byte and a buffered byte
        add   %%o0, %%o4, %%o0
        ldsh  [%%o1+2], %%o4
        add   %%o0, %%o4, %%o0
        ld    [%%o1+8], %%o4
        add   %%o0, %%o4, %%o0
        sth   %%o0, [%%o1+6]    ! y's memory half changes every iteration
        add   %%o2, 1, %%o2
        cmp   %%o2, %%l0
        bl    loop
        st    %%o0, [%%o1+20]
        halt
|}
    (if alias then
       {|        ld    [%l1], %o5        ! LCG state 0..15
        srl   %o5, 2, %l2
        sll   %l2, 2, %l2       ! roving word 0..3: its top two bits
        stb   %o3, [%o1+%l2]    ! may hit a word behind a hoisted load
        sll   %o5, 2, %l3
        add   %o5, %l3, %o5
        add   %o5, 1, %o5
        and   %o5, 15, %o5      ! state := (5 * state + 1) mod 16
        st    %o5, [%l1]|}
     else "")

let test_store_list_subword ~alias () =
  (* 16 long instructions hold an iteration's stores and loads in one
     block, so the roving store can trail a load hoisted above it *)
  let cfg =
    {
      (Dts_core.Config.ideal ~height:16 ()) with
      store_scheme = Dts_vliw.Engine.Data_store_list;
    }
  in
  let program = Dts_asm.Assembler.assemble (subword_store_list_asm ~alias) in
  let run compile =
    let what = if compile then "compiled" else "interpreted" in
    let trace = Buffer.create 4096 in
    let tracer = Dts_obs.Trace.to_buffer trace in
    (* test mode: the golden machine checks every block boundary *)
    let m = Dts_core.Machine.create ~compile ~tracer cfg program in
    ignore (Dts_core.Machine.run m);
    check_bool (what ^ ": ran in VLIW mode") true (m.vliw_cycles > 0);
    check_bool (what ^ ": buffered several stores") true
      (m.engine.stats.max_data_store_list >= 4);
    if alias then begin
      (* a rollback's [undone] counts the data store list it annulled *)
      let annulled =
        String.split_on_char '\n' (Buffer.contents trace)
        |> List.filter_map (fun line ->
               if line = "" then None
               else
                 match Dts_obs.Trace.parse_line line with
                 | _, "checkpoint_recovery", j ->
                   Option.bind (Dts_obs.Json.member "undone" j)
                     Dts_obs.Json.to_int
                 | _ -> None)
      in
      check_bool (what ^ ": rolled back a block with buffered stores") true
        (List.exists (fun n -> n > 0) annulled)
    end;
    Dts_mem.Memory.read m.st.mem
      ~addr:(Dts_asm.Program.symbol program "buf" + 20)
      ~size:4 ~signed:true
  in
  check_int "compiled and interpreted engines agree" (run false) (run true)

(* Creating a machine must cost a bounded, small number of words: cache
   ways are allocated on first use, so a multi-megabyte VLIW Cache costs
   only its set spine until blocks are installed, and the two memories
   allocate directory leaves, code pages and decode pages only for the
   regions the program touches. Total words allocated (minor + major -
   promoted) are deterministic, so this fails on a count, not a timing.
   Each count starts from a full major collection: after the rest of the
   suite has run, a collection falling inside the window was seen to add
   ~100k minor words the creation did not allocate. It ends with a minor
   collection, because OCaml 5.1's counters leave out the words still in
   the minor heap.

   The words allocated directly in the major heap (major - promoted:
   arrays above 256 words, 4 KiB pages) are bounded separately, each
   bound less than 4,097 words above its measured count (ideal 4,119,
   feasible 6,170, dif 2,583 words), so any per-machine table of 4,096
   entries breaks it. *)
let test_setup_allocation_bound () =
  let program = Dts_asm.Assembler.assemble (vector_sum_asm 100) in
  let words f =
    Gc.full_major ();
    let minor0, promoted0, major0 = Gc.counters () in
    f ();
    Gc.minor ();
    let minor1, promoted1, major1 = Gc.counters () in
    let direct = major1 -. major0 -. (promoted1 -. promoted0) in
    (minor1 -. minor0 +. direct, direct)
  in
  List.iter
    (fun (name, bound, major_bound, create) ->
      (* the first creation also pays one-off module initialisation *)
      create ();
      let w, major = words create in
      check_bool
        (Printf.sprintf "%s: %.0f words allocated, bound %.0f" name w bound)
        true (w <= bound);
      check_bool
        (Printf.sprintf "%s: %.0f words in the major heap, bound %.0f" name
           major major_bound)
        true (major <= major_bound))
    [
      ( "ideal",
        9_000.,
        5_000.,
        fun () ->
          ignore
            (Sys.opaque_identity
               (Dts_core.Machine.create (Dts_core.Config.ideal ()) program)) );
      ( "feasible",
        11_000.,
        7_000.,
        fun () ->
          ignore
            (Sys.opaque_identity
               (Dts_core.Machine.create (Dts_core.Config.feasible ()) program))
      );
      ( "dif",
        7_500.,
        3_500.,
        fun () ->
          ignore
            (Sys.opaque_identity
               (Dts_dif.Dif.machine
                  ~machine_cfg:(Dts_dif.Dif.fig9_machine_cfg ())
                  program)) );
    ]

let test_schemes_agree () =
  let src = vector_sum_asm 300 in
  let run scheme =
    let cfg = { (Dts_core.Config.ideal ()) with store_scheme = scheme } in
    let m, _, n = run_asm ~cfg src in
    (n, Dts_isa.State.get_reg m.st ~cwp:m.st.cwp 8)
  in
  let n1, r1 = run Dts_vliw.Engine.Checkpoint_recovery in
  let n2, r2 = run Dts_vliw.Engine.Data_store_list in
  check_int "same instruction count" n1 n2;
  check_int "same result" r1 r2

let test_next_li_prediction_helps () =
  let src = vector_sum_asm 500 in
  let run pred =
    let cfg =
      {
        (Dts_core.Config.feasible ()) with
        next_li_prediction = pred;
        sched = { (Dts_core.Config.feasible ()).sched with slot_classes = None; width = 8 };
      }
    in
    let m, _, n = run_asm ~cfg src in
    (float_of_int n /. float_of_int m.cycles, (Dts_core.Machine.stats m).nlp_hits)
  in
  let base, _ = run false in
  let with_pred, hits = run true in
  check_bool
    (Printf.sprintf "prediction %.3f >= baseline %.3f" with_pred base)
    true (with_pred >= base);
  check_bool "predictor hit" true (hits > 0)

let test_multicycle_cosim () =
  (* multicycle latencies change the schedule shape but not the results;
     the co-simulation verifies every block *)
  let base = Dts_core.Config.ideal () in
  let cfg =
    {
      base with
      sched = { base.sched with latencies = Dts_isa.Instr.multicycle_latencies };
    }
  in
  let m, p, _ =
    run_source ~cfg
      {| int r;
         int main() {
           int i; int s;
           s = 0;
           for (i = 1; i < 400; i = i + 1) { s = s + (s * 3 + i) / i; }
           r = s;
           return 0;
         } |}
  in
  check_bool "completed with multicycle units" true (global m p "r" <> 0)

let test_stats_collected () =
  let m, _, n = run_asm (vector_sum_asm 300) in
  check_bool "instructions counted" true (n > 1000);
  check_bool "slot utilisation in (0,1]" true
    (Dts_core.Machine.slot_utilisation m > 0.0
    && Dts_core.Machine.slot_utilisation m <= 1.0);
  check_bool "renaming registers tracked" true
    (Array.exists (fun v -> v > 0) (Dts_core.Machine.stats m).rr_max)

(* property: ANY configuration must simulate correctly — the co-simulation
   raises on divergence, so surviving the run is the assertion *)
let prop_random_config_correct =
  let open QCheck2.Gen in
  let gen_cfg =
    let* width = int_range 1 16 in
    let* height = int_range 1 16 in
    let* renaming = bool in
    let* resplit = bool in
    let* mem_motion = bool in
    let* strict = bool in
    let* store_list = bool in
    let* nlp = bool in
    let* multicycle = bool in
    let* vkb = oneofl [ 1; 4; 48; 3072 ] in
    let* vassoc = oneofl [ 1; 2; 4 ] in
    let base = Dts_core.Config.ideal ~width ~height () in
    return
      {
        base with
        sched =
          {
            base.sched with
            renaming;
            resplit_on_control = resplit;
            mem_motion;
            strict_control_insert = strict;
            latencies =
              (if multicycle then Dts_isa.Instr.multicycle_latencies
               else Dts_isa.Instr.unit_latencies);
          };
        vliw_cache = { kb = vkb; assoc = vassoc };
        store_scheme =
          (if store_list then Dts_vliw.Engine.Data_store_list
           else Dts_vliw.Engine.Checkpoint_recovery);
        next_li_prediction = nlp;
        memcmp_interval = 16;
      }
  in
  QCheck2.Test.make ~count:25 ~name:"any configuration co-simulates cleanly"
    gen_cfg (fun cfg ->
      let program =
        Dts_workloads.Workloads.program ~scale:1
          (Dts_workloads.Workloads.find "compress")
      in
      let m = Dts_core.Machine.create cfg program in
      let n = Dts_core.Machine.run ~max_instructions:20_000 m in
      n >= 20_000)

let suite =
  [
    Alcotest.test_case "vector sum (fig 2 kernel)" `Quick test_vector_sum;
    Alcotest.test_case "ipc beats sequential" `Quick
      test_vector_sum_beats_primary_alone;
    Alcotest.test_case "fib co-simulation" `Quick test_fib_cosim;
    Alcotest.test_case "sort co-simulation" `Quick test_sort_cosim;
    Alcotest.test_case "memory dependencies" `Quick
      test_pointer_chase_aliasing_paths;
    Alcotest.test_case "window traps in blocks" `Quick
      test_deep_recursion_window_traps;
    Alcotest.test_case "flags renaming" `Quick test_flags_renaming;
    Alcotest.test_case "geometry affects ipc" `Quick test_geometry_affects_ipc;
    Alcotest.test_case "feasible machine" `Quick test_feasible_machine_runs;
    Alcotest.test_case "vliw cycle fraction" `Quick
      test_vliw_cycle_fraction_high_for_loops;
    Alcotest.test_case "tiny vliw cache" `Quick test_tiny_vliw_cache_still_correct;
    Alcotest.test_case "no renaming still correct" `Quick
      test_no_renaming_still_correct;
    Alcotest.test_case "renaming improves ipc" `Quick test_renaming_improves_ipc;
    Alcotest.test_case "heterogeneous FUs" `Quick test_heterogeneous_fu_constraint;
    Alcotest.test_case "stats collected" `Quick test_stats_collected;
    Alcotest.test_case "multicycle co-sim" `Quick test_multicycle_cosim;
    Alcotest.test_case "data store list scheme" `Quick
      test_data_store_list_scheme;
    Alcotest.test_case "store schemes agree" `Quick test_schemes_agree;
    Alcotest.test_case "set-up allocation bound" `Quick
      test_setup_allocation_bound;
    Alcotest.test_case "data store list: sub-word stores" `Quick
      (test_store_list_subword ~alias:false);
    Alcotest.test_case "data store list: sub-word stores rolled back" `Quick
      (test_store_list_subword ~alias:true);
    Alcotest.test_case "next-li prediction" `Quick test_next_li_prediction_helps;
    QCheck_alcotest.to_alcotest prop_random_config_correct;
  ]
