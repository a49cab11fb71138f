(** Sets of small non-negative ints (coherence and VTD sharer sets, up to
    512 cores; the fleet balancer's server sets) stored in place in a slice
    of an [int array].

    A set is the [n] words [words.(base) .. words.(base + n - 1)]; member
    [i] is bit [i mod 62] of [words.(base + i / 62)]. Many sets share one
    array (one slice per directory or VTD slot), so a set costs no record
    and no pointer, and no operation below allocates. A member's word
    must lie inside the set's slice: callers range-check members against
    their own capacity. *)

val words_for : int -> int
(** [words_for n] is the slice length for members in [\[0, n)].
    @raise Invalid_argument if [n <= 0]. *)

val add : int array -> int -> int -> unit
(** [add words base i] adds [i] to the set at [base].
    @raise Invalid_argument if [i] is negative or its word lies past the
    array. *)

val remove : int array -> int -> int -> unit
(** [remove words base i] removes [i]; removing an absent member does
    nothing. @raise Invalid_argument as {!add}. *)

val member_at : int -> int -> int
(** [member_at k w] is the smallest member that word [k] of a slice
    holds when that word is [w <> 0]: callers that combine sets word by
    word (an intersection, say) name the first member of the result. *)

val mem : int array -> int -> int -> bool
(** [mem words base i]: [i] is in the set at [base].
    @raise Invalid_argument as {!add}. *)

val is_empty : int array -> int -> int -> bool
(** [is_empty words base n]: the [n]-word set at [base] has no member. *)

val clear : int array -> int -> int -> unit
(** [clear words base n] empties the [n]-word set at [base]. *)

val next_member : int array -> int -> int -> int -> int
(** [next_member words base n i] is the smallest member [>= i] of the
    [n]-word set at [base], or [-1] when there is none. Walking
    [next_member words base n 0], then [next_member words base n (m + 1)]
    after each member [m], visits the set in ascending order; the member
    just visited may be removed during the walk. *)
