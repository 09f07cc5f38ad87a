// Clang thread-safety analysis attributes.
//
// These macros wrap Clang's `-Wthread-safety` capability attributes so lock
// invariants live in the type system: a member annotated VLORA_GUARDED_BY(mu)
// cannot be touched without holding `mu`, a function annotated
// VLORA_REQUIRES(mu) cannot be called without it, and the analysis verifies
// both at compile time. Under GCC (and any compiler without the attributes)
// every macro expands to nothing, so the wrappers in sync.h stay zero-cost
// no-ops there — the annotations are enforced by the Clang static-analysis
// stage of scripts/verify.sh (cmake -DVLORA_THREAD_SAFETY=ON).
//
// The macro set mirrors Abseil's thread_annotations.h; DESIGN.md ("Static
// concurrency invariants") documents the repo's lock hierarchy and how to
// annotate new code.

#ifndef VLORA_SRC_COMMON_ANNOTATIONS_H_
#define VLORA_SRC_COMMON_ANNOTATIONS_H_

#if defined(__clang__)
#define VLORA_THREAD_ANNOTATION_ATTRIBUTE(x) __attribute__((x))
#else
#define VLORA_THREAD_ANNOTATION_ATTRIBUTE(x)  // no-op
#endif

// A type that acts as a lock: vlora::Mutex carries this.
#define VLORA_CAPABILITY(x) VLORA_THREAD_ANNOTATION_ATTRIBUTE(capability(x))

// A RAII type whose lifetime acquires/releases a capability (vlora::MutexLock).
#define VLORA_SCOPED_CAPABILITY VLORA_THREAD_ANNOTATION_ATTRIBUTE(scoped_lockable)

// Data members: reads and writes require holding the named capability.
#define VLORA_GUARDED_BY(x) VLORA_THREAD_ANNOTATION_ATTRIBUTE(guarded_by(x))

// Pointer members: dereferences of the pointee require the capability (the
// pointer itself may be read freely, e.g. set once at construction).
#define VLORA_PT_GUARDED_BY(x) VLORA_THREAD_ANNOTATION_ATTRIBUTE(pt_guarded_by(x))

// The function must be called with the capabilities held (and does not
// release them): the _Locked private-helper convention.
#define VLORA_REQUIRES(...) \
  VLORA_THREAD_ANNOTATION_ATTRIBUTE(requires_capability(__VA_ARGS__))

// The function acquires / releases the capability.
#define VLORA_ACQUIRE(...) VLORA_THREAD_ANNOTATION_ATTRIBUTE(acquire_capability(__VA_ARGS__))
#define VLORA_RELEASE(...) VLORA_THREAD_ANNOTATION_ATTRIBUTE(release_capability(__VA_ARGS__))
#define VLORA_TRY_ACQUIRE(...) \
  VLORA_THREAD_ANNOTATION_ATTRIBUTE(try_acquire_capability(__VA_ARGS__))

// The function must be called WITHOUT the capabilities held (it acquires them
// itself; calling it while holding one would self-deadlock).
#define VLORA_EXCLUDES(...) VLORA_THREAD_ANNOTATION_ATTRIBUTE(locks_excluded(__VA_ARGS__))

// The function returns a reference to the named capability.
#define VLORA_RETURN_CAPABILITY(x) VLORA_THREAD_ANNOTATION_ATTRIBUTE(lock_returned(x))

// Escape hatch for code the analysis cannot model. Every use must carry a
// comment explaining the external synchronisation that makes it sound;
// vlora_lint's review posture treats bare uses as defects.
#define VLORA_NO_THREAD_SAFETY_ANALYSIS \
  VLORA_THREAD_ANNOTATION_ATTRIBUTE(no_thread_safety_analysis)

// Marks a serving fast-path entry point. Purely a marker for vlora_lint's
// --hot-path pass (it expands to nothing under every compiler): the pass
// computes everything reachable from VLORA_HOT roots and flags heap
// allocation, blocking operations, file/socket I/O, getenv, and throws.
// Every VLORA_HOT function must also be listed in tools/hot_paths.toml
// [roots]; the pass cross-checks both directions. Trailing position, after
// the thread-safety annotations:  void Submit(...) VLORA_EXCLUDES(mu_) VLORA_HOT;
#define VLORA_HOT

#endif  // VLORA_SRC_COMMON_ANNOTATIONS_H_
