(** Architectural storage positions, the units of dependency testing in the
    Scheduler Unit (§3.2 of the paper).

    Dependencies are computed on {e physical} positions observed during
    execution: integer registers are physical indices (the window pointer
    value accompanies each instruction, §3.9), memory positions are the
    observed effective address and width (§3.9–3.10), and the condition-code
    register and window pointer are single renameable special positions
    (§3.8). *)

type t =
  | Int_reg of int  (** physical integer register index (never 0 = %g0) *)
  | Fp_reg of int
  | Flags  (** the integer condition codes *)
  | Win  (** cwp + window depth, written by save/restore *)
  | Mem of { addr : int; size : int }
  | Ren of { rk : int; rix : int }
      (** a renaming register (kind index, register index) — present so the
          Scheduler Unit can track dependencies through forwarded renamed
          sources (§3.2's running example rewrites [subcc r10,…] to
          [subcc r32,…]) *)
[@@deriving show { with_path = false }, eq]

(** Do two positions name overlapping state? Memory positions overlap when
    their byte ranges intersect; everything else is exact equality. *)
let overlaps a b =
  match (a, b) with
  | Int_reg x, Int_reg y -> x = y
  | Fp_reg x, Fp_reg y -> x = y
  | Flags, Flags | Win, Win -> true
  | Mem m1, Mem m2 ->
    m1.addr < m2.addr + m2.size && m2.addr < m1.addr + m1.size
  | Ren r1, Ren r2 -> r1.rk = r2.rk && r1.rix = r2.rix
  | ( (Int_reg _ | Fp_reg _ | Flags | Win | Mem _ | Ren _),
      (Int_reg _ | Fp_reg _ | Flags | Win | Mem _ | Ren _) ) ->
    false

let any_overlap xs ys =
  List.exists (fun x -> List.exists (overlaps x) ys) xs

let is_mem = function Mem _ -> true | _ -> false

(** {1 Position codes}

    The Scheduler Unit and the optimality oracle test dependencies on small
    int codes instead of comparing positions structurally, the way the
    paper's Scheduler Unit compares register, flag and address fields with
    fixed comparators (§3.7). Every non-memory position has a code, and two
    non-memory positions overlap exactly when their codes are equal:
    [Flags] is 0, [Win] is 1, [Fp_reg i] is [2 + i] (32 registers),
    integer registers take the even codes from 34 up and renaming registers
    the odd ones, so neither bound depends on the window count or on how
    many renaming registers a block uses. Memory positions have no code
    ({!no_code}): they keep their byte ranges. *)

let no_code = -1
let ren_code ~rk ~rix = 35 + (2 * ((4 * rix) + rk))

let code = function
  | Flags -> 0
  | Win -> 1
  | Fp_reg i -> 2 + i
  | Int_reg i -> 34 + (2 * i)
  | Ren { rk; rix } -> ren_code ~rk ~rix
  | Mem _ -> no_code

(** Is [c] the code of a renaming register? *)
let code_is_ren c = c >= 35 && c land 1 = 1

(** The codes of [ps], in order. Position sets have at most a few
    elements, and those are built as literals, without a call into the
    runtime's array constructor. *)
let codes ps =
  match ps with
  | [] -> [||]
  | [ a ] -> [| code a |]
  | [ a; b ] -> [| code a; code b |]
  | [ a; b; c ] -> [| code a; code b; code c |]
  | p :: _ ->
    let a = Array.make (List.length ps) (code p) in
    let rec fill i = function
      | [] -> a
      | p :: tl ->
        a.(i) <- code p;
        fill (i + 1) tl
    in
    fill 0 ps
