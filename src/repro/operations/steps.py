"""Canonical activity names of the rolling upgrade process (Fig. 2).

Single source of truth shared by the operation implementation, the
pattern library, the assertion bindings and the fault trees.
"""

START = "start_rolling_upgrade"
UPDATE_LC = "update_launch_configuration"
SORT = "sort_instances"
DEREGISTER = "remove_deregister_old_instance"
TERMINATE = "terminate_old_instance"
WAIT_ASG = "wait_for_asg_to_start_new_instance"
STATUS = "status_info"
READY = "new_instance_ready"
COMPLETED = "rolling_upgrade_completed"

#: The happy-path order (the loop body is DEREGISTER..READY).
SEQUENCE = (START, UPDATE_LC, SORT, DEREGISTER, TERMINATE, WAIT_ASG, STATUS, READY, COMPLETED)
