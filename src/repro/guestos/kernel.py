"""The simulated guest kernel.

Owns physical memory, the scheduler, syscall dispatch, synchronization
objects, fault repair and signal delivery. The kernel is written against
the :class:`~repro.guestos.platform.Platform` interface so the very same
kernel runs bare-metal or under AikidoVM — the paper's point that the
guest OS needs *no modifications* (modulo the context-switch notification,
which is modeled by the kernel calling ``platform.on_context_switch``,
standing in for the hypercall/trampoline probe of §3.2.3).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro import costs
from repro.errors import (
    DeadlockError,
    GuestOSError,
    HarnessError,
    NoSuchSyscallError,
    SegmentationFaultError,
)
from repro.events import (
    AcquireEvent,
    BarrierEvent,
    ForkEvent,
    JoinEvent,
    ReleaseEvent,
    ThreadExitEvent,
)
from repro.guestos.platform import NativePlatform, Platform
from repro.guestos.process import Process, Thread, ThreadStatus
from repro.guestos.scheduler import Scheduler
from repro.guestos.signals import SIGSEGV, HandlerResult, SignalInfo
from repro.guestos.vm import VMManager
from repro.guestos import syscalls
from repro.machine.cpu import (
    CPU,
    BarrierAction,
    CycleCounter,
    HaltAction,
    HypercallAction,
    JoinAction,
    LockAction,
    NotifyAction,
    SpawnAction,
    SyscallAction,
    UnlockAction,
    WaitAction,
)
from repro.machine.layout import static_segment_bases
from repro.machine.memory import PhysicalMemory, WORD_SIZE
from repro.machine.paging import PageFault


class Kernel:
    """A single-core, single-process guest kernel."""

    def __init__(self, platform: Optional[Platform] = None, *,
                 seed: int = 0, quantum: int = 200, jitter: float = 0.1,
                 frame_limit: int = 1 << 20, tlb_capacity: int = 64):
        self.memory = PhysicalMemory(frame_limit)
        self.counter = CycleCounter()
        self.platform = platform if platform is not None else NativePlatform()
        if getattr(self.platform, "counter", None) is None:
            self.platform.counter = self.counter
        self.scheduler = Scheduler(seed=seed, quantum=quantum, jitter=jitter)
        self.cpu = CPU(self.memory, self.platform.translate)
        self.processes: Dict[int, Process] = {}
        self._next_pid = 1
        self._next_tid = 1
        self._tlb_capacity = tlb_capacity
        self._sync_listeners: List[Callable] = []
        self._yield_requested = False
        #: pid -> execution driver; processes without an entry use the
        #: shared default (native) driver.
        self.drivers: Dict[int, object] = {}
        self._default_driver = None
        #: Kernel-observed totals (fault & signal bookkeeping).
        self.signals_delivered = 0
        self.faults_seen = 0
        #: SIGSEGV deliveries postponed by chaos (instruction refaults).
        self.signals_delayed = 0
        #: tid -> pending delay count for the *next* delivered signal.
        self._delay_counts: Dict[int, int] = {}
        #: Chaos injector, attached by ChaosInjector.attach (None = off).
        self.chaos = None
        #: Host-side callables invoked after every scheduler quantum;
        #: used by the invariant monitor's cadence. Must not mutate
        #: guest state (they run outside the simulated machine).
        self.tick_hooks: List[Callable] = []
        #: Observability tracer, attached by AikidoSystem (None = off).
        self.tracer = None

    # ------------------------------------------------------------------
    # setup
    # ------------------------------------------------------------------
    @property
    def process(self) -> Optional[Process]:
        """The primary (first-created) process, for the common
        single-process case."""
        return self.processes.get(1)

    @property
    def driver(self):
        """The primary process's driver (single-process convenience)."""
        return self.drivers.get(1, self._default_driver)

    def _alloc_tid(self) -> int:
        tid = self._next_tid
        self._next_tid += 1
        return tid

    def create_process(self, program) -> Process:
        """Load ``program`` into a fresh process with one main thread.

        May be called multiple times: each call creates an isolated
        address space; the scheduler interleaves threads of all
        processes and the run ends when every process has finished.
        """
        pid = self._next_pid
        self._next_pid += 1
        process = Process(pid, program, tlb_capacity=self._tlb_capacity,
                          tid_allocator=self._alloc_tid)
        process.vm = VMManager(self.memory, process.page_table)
        self.processes[pid] = process
        self.platform.attach_process(process)
        # Map static segments with the canonical layout, then fill in the
        # initial values through the page table.
        segments = program.segments
        bases = static_segment_bases([s.size for s in segments])
        for segment, base in zip(segments, bases):
            region = process.vm.map_region(base, segment.size,
                                           segment.name, kind="static")
            process.segment_bases[segment.name] = base
            for offset, value in segment.initial.items():
                process.vm.write_word(base + offset, value)
            if not segment.writable:
                # .rodata semantics: initialized above, then sealed.
                from repro.machine.paging import PTE_PRESENT, PTE_USER
                for vpn in region.vpns():
                    process.page_table.set_flags(
                        vpn, PTE_PRESENT | PTE_USER)
        main = process.create_thread(start_block=0)
        self.platform.on_thread_created(main)
        if self.chaos is not None:
            self.chaos.attach_thread(main)
        self.scheduler.register(main)
        return process

    def set_driver(self, driver, process: Optional[Process] = None) -> None:
        """Install an execution driver.

        With ``process`` given, the driver serves only that process's
        threads (a DBR engine is bound to one program); otherwise it
        serves the primary process.
        """
        target = process if process is not None else self.process
        if target is None:
            self._default_driver = driver
        else:
            self.drivers[target.pid] = driver

    def driver_for(self, thread: Thread):
        driver = self.drivers.get(thread.process.pid)
        return driver if driver is not None else self._default_driver

    def add_sync_listener(self, listener: Callable) -> None:
        """Subscribe an analysis to synchronization events."""
        self._sync_listeners.append(listener)

    # ------------------------------------------------------------------
    # main loop
    # ------------------------------------------------------------------
    def run(self, max_instructions: int = 200_000_000) -> None:
        """Run every process to completion (all threads exited)."""
        if not self.processes:
            raise GuestOSError("no process loaded")
        if self._default_driver is None:
            from repro.guestos.driver import NativeDriver
            self._default_driver = NativeDriver(self)
        prev: Optional[Thread] = None
        retired = 0
        while not all(p.finished for p in self.processes.values()):
            thread = self.scheduler.pick()
            if thread is None:
                live = [t for p in self.processes.values()
                        for t in p.live_threads]
                if not live:
                    for p in self.processes.values():
                        p.finished = True
                    break
                raise DeadlockError(
                    "all live threads are blocked: "
                    + ", ".join(f"t{t.tid}:{t.status.value}"
                                for t in live))
            if prev is not None and thread is not prev:
                self.counter.charge("context_switch", costs.CONTEXT_SWITCH)
                if self.tracer is not None:
                    self.tracer.instant("context_switch", "kernel",
                                        tid=thread.tid,
                                        from_tid=prev.tid)
                if prev.process is not thread.process:
                    # Cross-process switch: the kernel reloads CR3, which
                    # a hypervisor traps (§3.2.2).
                    self.platform.on_address_space_switch(prev, thread)
                self.platform.on_context_switch(prev, thread)
            driver = self.driver_for(thread)
            before = driver.stats.instructions
            driver.run(thread, self.scheduler.quantum)
            retired += driver.stats.instructions - before
            if self.tick_hooks:
                for hook in self.tick_hooks:
                    hook()
            prev = thread
            if retired > max_instructions:
                raise HarnessError(
                    f"instruction budget exceeded ({max_instructions}); "
                    "runaway workload?")

    def close(self) -> None:
        """Let a finished run be freed by reference counting.

        Processes and their threads, drivers, a DBR engine's code and
        superblock caches, analysis tools, tick hooks and the platform
        (AikidoVM keeps every process and thread) point back at one
        another and at the kernel, so without this a finished system,
        physical memory included, lives until the cyclic garbage
        collector runs. Drops those links; the counter still reads, but
        the kernel cannot run again.
        """
        for driver in {*self.drivers.values(), self._default_driver}:
            if driver is not None:
                driver.close()
        for process in self.processes.values():
            process.threads.clear()
            # Runtime handlers and tools (DynamoRIO's signal handler,
            # AikidoSD's region hook) and the platform's page-table
            # interceptor point back into the run.
            process.signal_handlers.clear()
            process.vm.post_map_hooks.clear()
            process.page_table.set_write_hook(None)
        self.platform.close()
        self.drivers.clear()
        self.processes.clear()
        self._sync_listeners.clear()
        self.tick_hooks.clear()
        self._default_driver = None

    # ------------------------------------------------------------------
    # fault repair & signal delivery
    # ------------------------------------------------------------------
    def repair_fault(self, thread: Thread, fault: PageFault) -> None:
        """Handle a fault raised by user-mode execution.

        Returns normally when the faulting instruction may be retried;
        raises :class:`~repro.errors.SegmentationFaultError` when the
        process must die.
        """
        self.faults_seen += 1
        self._dispatch_fault(thread, fault)
        chaos = self.chaos
        if chaos is None:
            return
        if chaos.fires("spurious_fault", tid=thread.tid,
                       detail=f"vpn={fault.vpn:#x}"):
            # Duplicate delivery of the same (already repaired) fault —
            # the hardware re-raising an in-flight exception. The stack
            # must absorb it: the hypervisor sees a hidden/redundant
            # fault and the sharing detector's state machine is
            # idempotent for re-delivered faults.
            self.faults_seen += 1
            self._dispatch_fault(thread, fault)
            chaos.note_recovered("spurious_fault")
        if chaos.fires("preempt", tid=thread.tid,
                       detail=f"fault vpn={fault.vpn:#x}"):
            self._chaos_preempt(chaos)

    def _dispatch_fault(self, thread: Thread, fault: PageFault) -> None:
        """One platform dispatch + (possibly delayed) signal delivery."""
        if self.tracer is None:
            return self._dispatch_fault_inner(thread, fault)
        with self.tracer.span("fault_dispatch", "kernel", tid=thread.tid,
                              vaddr=fault.vaddr, write=fault.is_write):
            return self._dispatch_fault_inner(thread, fault)

    def _dispatch_fault_inner(self, thread: Thread,
                              fault: PageFault) -> None:
        disposition = self.platform.handle_fault(thread, fault)
        if disposition.kind == "retry":
            return
        # The guest kernel's own fault path: no mapping to repair (eager
        # mmap), so deliver SIGSEGV to a registered handler, if any.
        self.counter.charge("kernel_fault", costs.KERNEL_FAULT_PATH)
        handler = thread.process.signal_handlers.get(SIGSEGV)
        if handler is None:
            raise SegmentationFaultError(
                f"unhandled fault at {fault.vaddr:#x}",
                address=fault.vaddr, thread_id=thread.tid)
        chaos = self.chaos
        if chaos is not None and chaos.fires(
                "delay_signal", tid=thread.tid,
                detail=f"addr={fault.vaddr:#x}"):
            # Postpone delivery: return without invoking the handler.
            # Nothing was repaired, so the instruction re-executes,
            # faults again, and delivery happens on a later attempt —
            # delayed, never lost.
            self.signals_delayed += 1
            self._delay_counts[thread.tid] = \
                self._delay_counts.get(thread.tid, 0) + 1
            chaos.note_recovered("delay_signal")
            return
        self.counter.charge("signal_delivery", costs.SIGNAL_DELIVERY)
        if self.tracer is not None:
            self.tracer.instant("signal_delivery", "kernel",
                                tid=thread.tid, signal="SIGSEGV",
                                addr=disposition.delivered_address)
        self.signals_delivered += 1
        info = SignalInfo(SIGSEGV, disposition.delivered_address,
                          fault.is_write, thread.tid,
                          attempt=self._delay_counts.pop(thread.tid, 0) + 1)
        result = handler(thread, info)
        if result is HandlerResult.RESUME:
            return
        raise SegmentationFaultError(
            f"signal handler declined fault at {fault.vaddr:#x}",
            address=fault.vaddr, thread_id=thread.tid)

    def _chaos_preempt(self, chaos) -> None:
        """Adversarial preemption: yield now, resume somewhere hostile."""
        self._yield_requested = True
        self.scheduler.chaos_rotate()
        chaos.note_recovered("preempt")

    # ------------------------------------------------------------------
    # kernel-mode user memory access (the §3.2.6 path)
    # ------------------------------------------------------------------
    def kernel_read_word(self, thread: Thread, vaddr: int) -> int:
        """Read a user word from kernel mode, retrying through the platform."""
        while True:
            try:
                paddr = self.platform.translate(thread, vaddr, False,
                                                user_mode=False)
                return self.memory.read_word(paddr)
            except PageFault as fault:
                disposition = self.platform.handle_fault(thread, fault)
                if disposition.kind != "retry":
                    raise SegmentationFaultError(
                        f"kernel oops: bad user buffer at {vaddr:#x}",
                        address=vaddr, thread_id=thread.tid)

    def kernel_write_word(self, thread: Thread, vaddr: int,
                          value: int) -> None:
        """Write a user word from kernel mode, retrying through the platform."""
        while True:
            try:
                paddr = self.platform.translate(thread, vaddr, True,
                                                user_mode=False)
                self.memory.write_word(paddr, value)
                return
            except PageFault as fault:
                disposition = self.platform.handle_fault(thread, fault)
                if disposition.kind != "retry":
                    raise SegmentationFaultError(
                        f"kernel oops: bad user buffer at {vaddr:#x}",
                        address=vaddr, thread_id=thread.tid)

    # ------------------------------------------------------------------
    # trap servicing
    # ------------------------------------------------------------------
    def service(self, thread: Thread, action) -> bool:
        """Service a trap; returns True when the instruction retired."""
        retired = self._service_action(thread, action)
        chaos = self.chaos
        if chaos is not None \
                and action.__class__ in (LockAction, UnlockAction,
                                         BarrierAction) \
                and chaos.fires("preempt", tid=thread.tid,
                                detail=action.__class__.__name__):
            self._chaos_preempt(chaos)
        return retired

    def _service_action(self, thread: Thread, action) -> bool:
        cls = action.__class__
        if cls is LockAction:
            return self._service_lock(thread, action)
        if cls is UnlockAction:
            return self._service_unlock(thread, action)
        if cls is BarrierAction:
            return self._service_barrier(thread, action)
        if cls is WaitAction:
            return self._service_wait(thread, action)
        if cls is NotifyAction:
            return self._service_notify(thread, action)
        if cls is SpawnAction:
            return self._service_spawn(thread, action)
        if cls is JoinAction:
            return self._service_join(thread, action)
        if cls is SyscallAction:
            return self._service_syscall(thread, action)
        if cls is HaltAction:
            self._exit_thread(thread)
            return True
        if cls is HypercallAction:
            # ABI: number in the instruction, args in r1..r4, result in r0.
            thread.regs[0] = self.platform.hypercall(
                thread, action.number, thread.regs[1:5]) or 0
            return True
        raise GuestOSError(f"unserviceable action {action!r}")

    def consume_yield(self) -> bool:
        """True once after a thread requested preemption (sched_yield)."""
        if self._yield_requested:
            self._yield_requested = False
            return True
        return False

    # -- locks ----------------------------------------------------------
    def _service_lock(self, thread: Thread, action) -> bool:
        return self._try_acquire(thread, action.lock_id)

    def _try_acquire(self, thread: Thread, lock_id: int) -> bool:
        """Acquire or block; shared by LOCK and WAIT's re-acquisition."""
        state = thread.process.lock_state(lock_id)
        if state.owner is None:
            state.owner = thread.tid
            state.acquisitions += 1
            self.counter.charge("sync", costs.LOCK_FAST)
            self._emit(AcquireEvent(thread.tid, lock_id))
            return True
        if state.owner == thread.tid:
            if state._handoff == thread.tid:
                # Granted while we slept; acquire event fired at grant time.
                state._handoff = None
                return True
            raise GuestOSError(
                f"thread {thread.tid} recursively acquired lock "
                f"{lock_id}")
        self._check_lock_cycle(thread, state)
        state.waiters.append(thread.tid)
        thread.status = ThreadStatus.BLOCKED_LOCK
        self.counter.charge("sync", costs.LOCK_BLOCK)
        return False

    def _check_lock_cycle(self, thread: Thread, wanted) -> None:
        """Detect AB-BA style deadlocks *at block time*.

        Walks the waits-for chain: the thread about to block waits for
        ``wanted``'s owner; if that owner is itself blocked on a lock,
        follow it, and so on. Reaching the blocking thread closes a
        cycle — report it immediately instead of hanging until every
        other thread drains.
        """
        process = thread.process
        chain = [wanted.lock_id]
        owner_tid = wanted.owner
        seen = set()
        while owner_tid is not None:
            if owner_tid == thread.tid:
                raise DeadlockError(
                    f"lock cycle: thread {thread.tid} would wait on "
                    f"locks {chain} held (transitively) by itself")
            if owner_tid in seen:
                return  # cycle among other threads; they will report it
            seen.add(owner_tid)
            owner = process.threads.get(owner_tid)
            if owner is None or owner.status is not ThreadStatus.BLOCKED_LOCK:
                return
            # Which lock is the owner waiting for?
            next_lock = next(
                (ls for ls in process.locks.values()
                 if owner_tid in ls.waiters), None)
            if next_lock is None:
                return
            chain.append(next_lock.lock_id)
            owner_tid = next_lock.owner

    def _service_unlock(self, thread: Thread, action) -> bool:
        self._release_lock(thread, action.lock_id)
        return True

    def _release_lock(self, thread: Thread, lock_id: int) -> None:
        """Release + FIFO handoff; shared by UNLOCK and WAIT."""
        state = thread.process.lock_state(lock_id)
        if state.owner != thread.tid:
            raise GuestOSError(
                f"thread {thread.tid} released lock {lock_id} "
                f"owned by {state.owner}")
        self.counter.charge("sync", costs.LOCK_FAST)
        self._emit(ReleaseEvent(thread.tid, lock_id))
        if state.waiters:
            next_tid = state.waiters.popleft()
            state.owner = next_tid
            state.acquisitions += 1
            state._handoff = next_tid
            waiter = thread.process.threads[next_tid]
            waiter.status = ThreadStatus.RUNNABLE
            # The waiter's critical section happens-after this release.
            self._emit(AcquireEvent(next_tid, lock_id))
        else:
            state.owner = None

    # -- condition variables ---------------------------------------------
    def _service_wait(self, thread: Thread, action) -> bool:
        """pthread_cond_wait semantics via instruction re-execution.

        First execution: release the (held) lock, park on the condition
        variable. After NOTIFY marks us signaled, the re-executed WAIT
        re-acquires the lock (possibly blocking again) and then retires.
        Happens-before flows through the lock's release/acquire events —
        the standard conservative treatment of condition variables.
        """
        process = thread.process
        if thread.cv_state is None:
            lock = process.lock_state(action.lock_id)
            if lock.owner != thread.tid:
                raise GuestOSError(
                    f"thread {thread.tid} waits on cv {action.cv_id} "
                    f"without holding lock {action.lock_id}")
            self._release_lock(thread, action.lock_id)
            process.condvar_waiters(action.cv_id).append(thread.tid)
            thread.cv_state = ("waiting", action.cv_id, action.lock_id)
            thread.status = ThreadStatus.BLOCKED_CV
            self.counter.charge("sync", costs.LOCK_BLOCK)
            return False
        phase, cv_id, lock_id = thread.cv_state
        if phase == "signaled":
            if self._try_acquire(thread, lock_id):
                thread.cv_state = None
                return True
            return False  # parked on the lock; WAIT re-executes on grant
        raise GuestOSError(
            f"thread {thread.tid} re-executed WAIT while parked")

    def _service_notify(self, thread: Thread, action) -> bool:
        waiters = thread.process.condvar_waiters(action.cv_id)
        count = len(waiters) if action.notify_all else min(1, len(waiters))
        for _ in range(count):
            tid = waiters.popleft()
            waiter = thread.process.threads[tid]
            phase, cv_id, lock_id = waiter.cv_state
            waiter.cv_state = ("signaled", cv_id, lock_id)
            waiter.status = ThreadStatus.RUNNABLE
        self.counter.charge("sync", costs.LOCK_FAST)
        return True

    # -- barriers -------------------------------------------------------
    def _service_barrier(self, thread: Thread, action) -> bool:
        state = thread.process.barrier_state(action.barrier_id)
        waited = thread.barrier_wait
        if waited is not None and waited[0] == action.barrier_id \
                and waited[1] < state.generation:
            # Our generation completed while we slept.
            thread.barrier_wait = None
            return True
        self.counter.charge("sync", costs.BARRIER_WAIT)
        if action.parties <= 0:
            raise GuestOSError("barrier with non-positive party count")
        state.arrived.append(thread.tid)
        if len(state.arrived) >= action.parties:
            participants = tuple(state.arrived)
            state.arrived = []
            generation = state.generation
            state.generation += 1
            for tid in participants:
                other = thread.process.threads[tid]
                if other.status is ThreadStatus.BLOCKED_BARRIER:
                    other.status = ThreadStatus.RUNNABLE
            self._emit(BarrierEvent(action.barrier_id, generation,
                                    participants))
            thread.barrier_wait = None
            return True
        thread.barrier_wait = (action.barrier_id, state.generation)
        thread.status = ThreadStatus.BLOCKED_BARRIER
        return False

    # -- thread lifecycle ------------------------------------------------
    def _service_spawn(self, thread: Thread, action) -> bool:
        child = thread.process.create_thread(action.target_block,
                                             action.arg)
        self.counter.charge("sync", costs.SPAWN_THREAD)
        self.platform.on_thread_created(child)
        if self.chaos is not None:
            self.chaos.attach_thread(child)
        self.scheduler.register(child)
        thread.regs[action.rd] = child.tid
        self._emit(ForkEvent(thread.tid, child.tid))
        return True

    def _service_join(self, thread: Thread, action) -> bool:
        target = thread.process.threads.get(action.tid)
        if target is None:
            raise GuestOSError(f"join on unknown tid {action.tid}")
        self.counter.charge("sync", costs.JOIN_THREAD)
        if target.exited:
            self._emit(JoinEvent(thread.tid, target.tid))
            return True
        target.joiners.append(thread.tid)
        thread.status = ThreadStatus.BLOCKED_JOIN
        return False

    def _exit_thread(self, thread: Thread) -> None:
        thread.status = ThreadStatus.EXITED
        self.platform.on_thread_exited(thread)
        self.scheduler.unregister(thread)
        self._emit(ThreadExitEvent(thread.tid))
        for tid in thread.joiners:
            joiner = thread.process.threads[tid]
            if joiner.status is ThreadStatus.BLOCKED_JOIN:
                joiner.status = ThreadStatus.RUNNABLE
        thread.joiners.clear()
        if not thread.process.live_threads:
            thread.process.finished = True

    # -- syscalls ---------------------------------------------------------
    def _service_syscall(self, thread: Thread, action) -> bool:
        self.counter.charge("syscall", costs.SYSCALL)
        if self.tracer is not None:
            self.tracer.instant("syscall", "kernel", tid=thread.tid,
                                number=action.number)
        number = action.number
        regs = thread.regs
        if number == syscalls.SYS_EXIT:
            self._exit_thread(thread)
            return True
        if number == syscalls.SYS_MMAP:
            regs[0] = thread.process.vm.mmap(regs[1])
            return True
        if number == syscalls.SYS_BRK:
            regs[0] = thread.process.vm.brk(regs[1])
            return True
        if number == syscalls.SYS_GETTID:
            regs[0] = thread.tid
            return True
        if number == syscalls.SYS_WRITE:
            addr, words = regs[1], regs[2]
            checksum = 0
            for i in range(words):
                checksum = (checksum
                            + self.kernel_read_word(thread,
                                                    addr + i * WORD_SIZE)) \
                    & 0xFFFFFFFFFFFFFFFF
            regs[0] = checksum
            return True
        if number == syscalls.SYS_FILL:
            addr, words, value = regs[1], regs[2], regs[3]
            for i in range(words):
                self.kernel_write_word(thread, addr + i * WORD_SIZE, value)
            regs[0] = 0
            return True
        if number == syscalls.SYS_YIELD:
            self._yield_requested = True
            return True
        raise NoSuchSyscallError(f"syscall {number}")

    # ------------------------------------------------------------------
    def _emit(self, event) -> None:
        for listener in self._sync_listeners:
            listener(event)
